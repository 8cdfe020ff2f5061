package sta

import (
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// diamond builds the classic reconvergent graph:
//
//	in → a → out
//	in → b → out
//
// with the given arc delay forms.
func diamond(da, db, daOut, dbOut variation.Form) (*Graph, PinID, PinID) {
	g := NewGraph()
	in := g.AddPin("in")
	a := g.AddPin("a")
	b := g.AddPin("b")
	out := g.AddPin("out")
	_ = g.AddArc(in, a, da)
	_ = g.AddArc(in, b, db)
	_ = g.AddArc(a, out, daOut)
	_ = g.AddArc(b, out, dbOut)
	return g, in, out
}

func TestGraphBasics(t *testing.T) {
	g, in, out := diamond(variation.Const(1), variation.Const(2),
		variation.Const(3), variation.Const(4))
	if g.NumPins() != 4 {
		t.Fatalf("pins = %d", g.NumPins())
	}
	if ins := g.Inputs(); len(ins) != 1 || ins[0] != in {
		t.Errorf("inputs = %v", ins)
	}
	if outs := g.Outputs(); len(outs) != 1 || outs[0] != out {
		t.Errorf("outputs = %v", outs)
	}
	if g.Pin(in).Name != "in" {
		t.Errorf("pin name = %q", g.Pin(in).Name)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[PinID]int)
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[in] < pos[out]) {
		t.Error("topological order broken")
	}
}

func TestAddArcValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddPin("a")
	if err := g.AddArc(a, 99, variation.Const(1)); err == nil {
		t.Error("bad target accepted")
	}
	if err := g.AddArc(99, a, variation.Const(1)); err == nil {
		t.Error("bad source accepted")
	}
	if err := g.AddArc(a, a, variation.Const(1)); err == nil {
		t.Error("self arc accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	a := g.AddPin("a")
	b := g.AddPin("b")
	if err := g.AddArc(a, b, variation.Const(1)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(b, a, variation.Const(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if _, err := Analyze(g, nil, nil, variation.NewSpace()); err == nil {
		t.Error("Analyze accepted cyclic graph")
	}
	if _, err := MonteCarlo(g, nil, variation.NewSpace(), 10, 1); err == nil {
		t.Error("MonteCarlo accepted cyclic graph")
	}
	if _, err := Analyze(NewGraph(), nil, nil, variation.NewSpace()); err == nil {
		t.Error("Analyze accepted empty graph")
	}
}

func TestDeterministicLongestPath(t *testing.T) {
	g, _, out := diamond(variation.Const(1), variation.Const(2),
		variation.Const(3), variation.Const(4))
	space := variation.NewSpace()
	res, err := Analyze(g, nil, nil, space)
	if err != nil {
		t.Fatal(err)
	}
	// Longest path: in→b→out = 2+4 = 6.
	if res.Arrival[out].Nominal != 6 {
		t.Errorf("arrival = %g, want 6", res.Arrival[out].Nominal)
	}
	// Required at out defaults to 0; slack = -6 there.
	if res.Slack[out].Nominal != -6 {
		t.Errorf("slack = %g, want -6", res.Slack[out].Nominal)
	}
	// Slack identity holds everywhere.
	for i := range res.Slack {
		want := res.Required[i].Nominal - res.Arrival[i].Nominal
		if math.Abs(res.Slack[i].Nominal-want) > 1e-12 {
			t.Errorf("pin %d slack identity broken", i)
		}
	}
	// WNS equals the single endpoint's slack; criticality 1.
	if res.WNS.Nominal != -6 {
		t.Errorf("WNS = %g", res.WNS.Nominal)
	}
	if res.EndpointCriticality[out] != 1 {
		t.Errorf("criticality = %v", res.EndpointCriticality)
	}
}

func TestRequiredTimesAndYield(t *testing.T) {
	g, _, out := diamond(variation.Const(1), variation.Const(2),
		variation.Const(3), variation.Const(4))
	space := variation.NewSpace()
	res, err := Analyze(g, nil, map[PinID]variation.Form{out: variation.Const(10)}, space)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slack[out].Nominal != 4 {
		t.Errorf("slack at out = %g, want 4", res.Slack[out].Nominal)
	}
	if y := res.YieldAtClock(space); y != 1 {
		t.Errorf("deterministic positive-slack yield = %g", y)
	}
	res2, err := Analyze(g, nil, map[PinID]variation.Form{out: variation.Const(5)}, space)
	if err != nil {
		t.Fatal(err)
	}
	if y := res2.YieldAtClock(space); y != 0 {
		t.Errorf("deterministic negative-slack yield = %g", y)
	}
}

func TestReconvergenceCorrelationHandled(t *testing.T) {
	// Both branches share one source: their delays are perfectly
	// correlated, so MAX(a, b) is exact with no Clark inflation and the
	// arrival variance equals the branch variance.
	space := variation.NewSpace()
	src := space.Add(variation.ClassInterDie, "G")
	dShared := variation.NewForm(5, []variation.Term{{ID: src, Coef: 1}})
	g, _, out := diamond(dShared, dShared, variation.Const(1), variation.Const(1))
	res, err := Analyze(g, nil, nil, space)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Arrival[out].Nominal-6) > 1e-9 {
		t.Errorf("arrival mean = %g, want 6", res.Arrival[out].Nominal)
	}
	if v := res.Arrival[out].Var(space); math.Abs(v-1) > 1e-9 {
		t.Errorf("arrival variance = %g, want exactly 1 (correlation must cancel)", v)
	}
}

func TestAnalyzeAgainstMonteCarlo(t *testing.T) {
	// Random DAG with shared and private variation sources: canonical
	// arrival moments at every output must match sampling.
	rng := rand.New(rand.NewSource(3))
	space := variation.NewSpace()
	shared := space.Add(variation.ClassInterDie, "G")
	g := NewGraph()
	const layers, width = 5, 4
	prev := make([]PinID, width)
	for i := range prev {
		prev[i] = g.AddPin("")
	}
	for l := 0; l < layers; l++ {
		cur := make([]PinID, width)
		for i := range cur {
			cur[i] = g.AddPin("")
			for j := range prev {
				if rng.Float64() < 0.6 {
					priv := space.Add(variation.ClassRandom, "x")
					d := variation.NewForm(5+5*rng.Float64(), []variation.Term{
						{ID: shared, Coef: 0.5},
						{ID: priv, Coef: 0.5 + rng.Float64()},
					})
					if err := g.AddArc(prev[j], cur[i], d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		prev = cur
	}
	res, err := Analyze(g, nil, nil, space)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := MonteCarlo(g, nil, space, 30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Outputs()
	for i, id := range outs {
		mean, v := stats.MeanVar(samples[i])
		am := res.Arrival[id].Nominal
		av := res.Arrival[id].Sigma(space)
		if am == 0 && mean == 0 {
			continue // unreachable output pin
		}
		if math.Abs(mean-am) > 0.02*math.Abs(mean)+0.2 {
			t.Errorf("output %d: MC mean %.3f vs model %.3f", id, mean, am)
		}
		if av > 0 && math.Abs(math.Sqrt(v)-av)/av > 0.12 {
			t.Errorf("output %d: MC sigma %.3f vs model %.3f", id, math.Sqrt(v), av)
		}
	}
}

func TestEndpointCriticalitySumsToOne(t *testing.T) {
	space := variation.NewSpace()
	g := NewGraph()
	in := g.AddPin("in")
	var outs []PinID
	for i := 0; i < 4; i++ {
		o := g.AddPin("")
		outs = append(outs, o)
		priv := space.Add(variation.ClassRandom, "x")
		d := variation.NewForm(10+float64(i), []variation.Term{{ID: priv, Coef: 2}})
		if err := g.AddArc(in, o, d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Analyze(g, nil, nil, space)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range outs {
		p := res.EndpointCriticality[o]
		if p < 0 || p > 1 {
			t.Errorf("criticality %g outside [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("criticalities sum to %g", sum)
	}
	// The slowest endpoint (largest arrival, equal required) is the most
	// critical.
	best := outs[3]
	for _, o := range outs {
		if res.EndpointCriticality[o] > res.EndpointCriticality[best] {
			t.Errorf("endpoint %d more critical than the slowest", o)
		}
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g, _, _ := diamond(variation.Const(1), variation.Const(1),
		variation.Const(1), variation.Const(1))
	if _, err := MonteCarlo(g, nil, variation.NewSpace(), 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	a, err := MonteCarlo(g, nil, variation.NewSpace(), 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(g, nil, variation.NewSpace(), 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatal("MC not reproducible")
		}
	}
}

func TestInputArrivalTimes(t *testing.T) {
	g, in, out := diamond(variation.Const(1), variation.Const(2),
		variation.Const(3), variation.Const(4))
	space := variation.NewSpace()
	res, err := Analyze(g, map[PinID]variation.Form{in: variation.Const(100)}, nil, space)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrival[out].Nominal != 106 {
		t.Errorf("arrival with offset input = %g, want 106", res.Arrival[out].Nominal)
	}
}
