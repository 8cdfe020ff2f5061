package variation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/stats"
)

// The reference below is a frozen copy of the statistical MIN as it was
// computed before the one-walk kernel: eight separate passes over the two
// term lists (SigmaDiff, Sigma(f), Sigma(g), Corr's own two sigmas and Cov,
// Scale/Scale/Add, Var of the blend, the rescale), each summing c·c·σ·σ with
// σ = 1 per unit-normal source. The kernel under test must reproduce it bit
// for bit; comparing against this copy rather than against the kernel's own
// helpers keeps the check independent of the code it checks.

func refSigma(SourceID) float64 { return 1 }

func refVar(f Form) float64 {
	v := 0.0
	for _, t := range f.Terms {
		s := refSigma(t.ID)
		v += t.Coef * t.Coef * s * s
	}
	return v
}

func refCov(f, g Form) float64 {
	c := 0.0
	i, j := 0, 0
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			i++
		case a.ID > b.ID:
			j++
		default:
			s := refSigma(a.ID)
			c += a.Coef * b.Coef * s * s
			i++
			j++
		}
	}
	return c
}

func refCorr(f, g Form) float64 {
	sf := math.Sqrt(refVar(f))
	sg := math.Sqrt(refVar(g))
	if sf == 0 || sg == 0 {
		return 0
	}
	rho := refCov(f, g) / (sf * sg)
	return math.Max(-1, math.Min(1, rho))
}

func refSigmaDiff(f, g Form) float64 {
	v := 0.0
	i, j := 0, 0
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			s := refSigma(a.ID)
			v += a.Coef * a.Coef * s * s
			i++
		case a.ID > b.ID:
			s := refSigma(b.ID)
			v += b.Coef * b.Coef * s * s
			j++
		default:
			c := a.Coef - b.Coef
			s := refSigma(a.ID)
			v += c * c * s * s
			i++
			j++
		}
	}
	for ; i < len(f.Terms); i++ {
		t := f.Terms[i]
		s := refSigma(t.ID)
		v += t.Coef * t.Coef * s * s
	}
	for ; j < len(g.Terms); j++ {
		t := g.Terms[j]
		s := refSigma(t.ID)
		v += t.Coef * t.Coef * s * s
	}
	return math.Sqrt(v)
}

func refMin(f, g Form) MinResult {
	sd := refSigmaDiff(f, g)
	if sd == 0 {
		m := stats.MinMoments{SigmaDiff: 0}
		if f.Nominal <= g.Nominal {
			if f.Nominal == g.Nominal {
				m.Tightness = 0.5
			} else {
				m.Tightness = 1
			}
			m.Mean = f.Nominal
			m.Var = refVar(f)
			return MinResult{Form: f, Moments: m}
		}
		m.Tightness = 0
		m.Mean = g.Nominal
		m.Var = refVar(g)
		return MinResult{Form: g, Moments: m}
	}
	sf := math.Sqrt(refVar(f))
	sg := math.Sqrt(refVar(g))
	rho := refCorr(f, g)
	mom := stats.MinNormals(f.Nominal, sf, g.Nominal, sg, rho)
	t := mom.Tightness
	blended := f.Scale(t).Add(g.Scale(1 - t))
	blended.Nominal = mom.Mean
	if vb := refVar(blended); vb > 0 && mom.Var > 0 {
		s := math.Sqrt(mom.Var / vb)
		for i := range blended.Terms {
			blended.Terms[i].Coef *= s
		}
	}
	return MinResult{Form: blended, Moments: mom}
}

// sameBits reports the first bitwise difference between two MIN results,
// or "" when they are identical.
func sameBits(got, want MinResult) string {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !eq(got.Form.Nominal, want.Form.Nominal):
		return "nominal"
	case !eq(got.Moments.Mean, want.Moments.Mean):
		return "Moments.Mean"
	case !eq(got.Moments.Var, want.Moments.Var):
		return "Moments.Var"
	case !eq(got.Moments.Tightness, want.Moments.Tightness):
		return "Moments.Tightness"
	case !eq(got.Moments.SigmaDiff, want.Moments.SigmaDiff):
		return "Moments.SigmaDiff"
	case len(got.Form.Terms) != len(want.Form.Terms):
		return "term count"
	}
	for i, a := range got.Form.Terms {
		b := want.Form.Terms[i]
		if a.ID != b.ID || !eq(a.Coef, b.Coef) {
			return fmt.Sprintf("term %d", i)
		}
	}
	return ""
}

// checkMinBits runs the heap and the arena MIN on (f, g) and compares both
// with the frozen reference.
func checkMinBits(t *testing.T, name string, f, g Form) {
	t.Helper()
	space := NewSpace()
	want := refMin(f, g)
	if d := sameBits(Min(f, g, space), want); d != "" {
		t.Errorf("%s: Min differs from reference in %s", name, d)
	}
	a := NewArena()
	defer a.Release()
	if d := sameBits(MinIn(a, f, g, space), want); d != "" {
		t.Errorf("%s: MinIn differs from reference in %s", name, d)
	}
}

// randForm draws a form over the given IDs with normal coefficients; with
// zeros set, about one coefficient in eight is zero, as non-canonical
// arena results can carry.
func randForm(rng *rand.Rand, nominal float64, ids []SourceID, zeros bool) Form {
	terms := make([]Term, len(ids))
	for i, id := range ids {
		c := rng.NormFloat64()
		if zeros && rng.Intn(8) == 0 {
			c = 0
		}
		terms[i] = Term{id, c}
	}
	return Form{Nominal: nominal, Terms: terms}
}

// randIDs picks each of the IDs 0..n-1 with probability one half.
func randIDs(rng *rand.Rand, n int) []SourceID {
	var ids []SourceID
	for id := 0; id < n; id++ {
		if rng.Intn(2) == 0 {
			ids = append(ids, SourceID(id))
		}
	}
	return ids
}

func idRange(lo, hi, step int) []SourceID {
	var ids []SourceID
	for id := lo; id < hi; id += step {
		ids = append(ids, SourceID(id))
	}
	return ids
}

func TestMinInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aligned := idRange(0, 40, 1)
	f := randForm(rng, 100, aligned, false)
	cases := []struct {
		name string
		f, g Form
	}{
		{"aligned", f, randForm(rng, 101, aligned, false)},
		{"aligned prefix", f, randForm(rng, 99, idRange(0, 50, 1), false)},
		{"interleaved", randForm(rng, 100, idRange(0, 60, 2), false), randForm(rng, 100.5, idRange(1, 61, 2), false)},
		{"overlapping", randForm(rng, 100, idRange(0, 60, 2), false), randForm(rng, 98, idRange(0, 60, 3), false)},
		{"disjoint", randForm(rng, 100, idRange(0, 20, 1), false), randForm(rng, 100, idRange(20, 40, 1), false)},
		{"identical", f, f},
		{"identical shifted", f, f.Shift(1)},
		{"identical shifted down", f, f.Shift(-1)},
		{"f deterministic", Const(100), f},
		{"g deterministic", f, Const(100)},
		{"both deterministic", Const(3), Const(2)},
		{"tightness 1", f, randForm(rng, 1e9, aligned, false)},
		{"tightness 0", randForm(rng, 1e9, aligned, false), f},
		{"tightness 0 interleaved", randForm(rng, 1e9, idRange(0, 60, 2), false), randForm(rng, 0, idRange(1, 61, 2), false)},
		{"cancelling", Form{Nominal: 1, Terms: []Term{{0, 1}, {1, 2}}}, Form{Nominal: 1, Terms: []Term{{0, -1}, {1, 2}}}},
		{"zero coefficients", randForm(rng, 100, aligned, true), randForm(rng, 100, idRange(0, 60, 2), true)},
		{"underflowing", Form{Nominal: 0, Terms: []Term{{0, 1e-200}}}, Form{Nominal: 0, Terms: []Term{{1, 1e-200}}}},
	}
	for _, c := range cases {
		checkMinBits(t, c.name, c.f, c.g)
		checkMinBits(t, c.name+" swapped", c.g, c.f)
	}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(80)
		gap := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-2))
		checkMinBits(t, "random", randForm(rng, 50, randIDs(rng, n), true), randForm(rng, 50+gap, randIDs(rng, n), true))
	}
}

func FuzzMinIn(f *testing.F) {
	f.Add(int64(1), 0.0, 0.5, 1.0, uint16(0xffff), uint16(0xffff))
	f.Add(int64(2), 10.0, -3.0, 1.0, uint16(0x5555), uint16(0xaaaa))
	f.Add(int64(3), 0.0, 0.0, 1.0, uint16(0x00ff), uint16(0xff00))
	f.Add(int64(4), 1e9, 0.0, 2.0, uint16(0x0f0f), uint16(0x0ff0))
	f.Add(int64(5), 1.0, 1.0, 1e-160, uint16(0x0003), uint16(0x0001))
	f.Add(int64(6), 5.0, 5.0, 1.0, uint16(0), uint16(0x0101))
	f.Fuzz(func(t *testing.T, seed int64, fNom, gNom, scale float64, fMask, gMask uint16) {
		for _, v := range []float64{fNom, gNom, scale} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				t.Skip("non-finite or overflowing input")
			}
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func(nominal float64, mask uint16) Form {
			var terms []Term
			for id := 0; id < 16; id++ {
				if mask&(1<<id) == 0 {
					continue
				}
				c := scale * rng.NormFloat64()
				if rng.Intn(8) == 0 {
					c = 0
				}
				terms = append(terms, Term{SourceID(id), c})
			}
			return Form{Nominal: nominal, Terms: terms}
		}
		ff, gg := mk(fNom, fMask), mk(gNom, gMask)
		checkMinBits(t, "fuzz", ff, gg)
	})
}

// TestSubAXPYInMatchesTwoPass pins the fused buffer step to the two-pass
// f.SubIn(g).AXPYIn(s, h) it replaces, including the zero-drop corner
// where f and g cancel on a source h also carries.
func TestSubAXPYInMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, f, g Form, s float64, h Form) {
		t.Helper()
		a := NewArena()
		defer a.Release()
		want := f.SubIn(a, g).AXPYIn(a, s, h)
		for _, arena := range []*Arena{a, nil} {
			got := f.SubAXPYIn(arena, g, s, h)
			if math.Float64bits(got.Nominal) != math.Float64bits(want.Nominal) || len(got.Terms) != len(want.Terms) {
				t.Fatalf("%s: got %v, want %v", name, got, want)
			}
			for i := range got.Terms {
				if got.Terms[i].ID != want.Terms[i].ID || math.Float64bits(got.Terms[i].Coef) != math.Float64bits(want.Terms[i].Coef) {
					t.Fatalf("%s: term %d got %v, want %v", name, i, got.Terms[i], want.Terms[i])
				}
			}
		}
	}
	x := Form{Nominal: 1, Terms: []Term{{0, 1}, {1, 2}, {3, 4}}}
	check("cancel then h", x, Form{Terms: []Term{{0, 1}, {1, 2}}}, -0.5, Form{Nominal: 2, Terms: []Term{{0, 0}, {1, 3}}})
	check("cancel everywhere", x, x, -1, x)
	check("h cancels intermediate", x, Form{}, -1, x)
	check("empty g and h", x, Form{}, -2, Form{Nominal: 3})
	check("zero scale", x, Form{Terms: []Term{{2, 1}}}, 0, x)
	check("only h", Form{}, Form{}, 1.5, x)
	check("zero coefficients", Form{Terms: []Term{{0, 0}, {2, 1}}}, Form{Terms: []Term{{1, 0}}}, -1, Form{Terms: []Term{{4, 0}}})
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(30)
		f := randForm(rng, rng.NormFloat64(), randIDs(rng, n), true)
		g := randForm(rng, rng.NormFloat64(), randIDs(rng, n), true)
		h := randForm(rng, rng.NormFloat64(), randIDs(rng, n), true)
		if rng.Intn(4) == 0 {
			// Make f and g cancel on their shared sources.
			g = f
		}
		check("random", f, g, -rng.Float64(), h)
	}
}
