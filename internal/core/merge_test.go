package core

import (
	"math/rand"
	"sort"
	"testing"

	"vabuf/internal/variation"
)

func testWorker(rule Rule) *worker {
	opts := Options{Rule: rule, PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP()}
	e := &engine{opts: opts, space: variation.NewSpace()}
	w := &worker{eng: e, terms: variation.NewArena()}
	w.prov = provWriter{pa: &e.prov}
	w.prn = newPruner(w.eng.space, opts, &w.stats)
	return w
}

// mkLeafFrontier builds a frontier of deterministic (L, T) candidates with
// real opLeaf provenance records, so merges can be backtracked.
func (w *worker) mkLeafFrontier(pairs ...[2]float64) *frontier {
	f := newFrontier(len(pairs), w.prn.needSigmas())
	for _, c := range pairs {
		ref := w.prov.alloc(prov{pred: -1, pred2: -1, aux: -1, op: opLeaf})
		f.push(variation.Const(c[0]), variation.Const(c[1]), ref, w.eng.space)
	}
	return f
}

// TestLinearMergeFigure1 reproduces the mechanism of Figure 1: two sorted
// three-candidate lists merge in one linear pass into a sorted,
// non-dominated list of at most n+m-1 candidates.
func TestLinearMergeFigure1(t *testing.T) {
	w := testWorker(Rule2P)
	// Strictly sorted in both L and T (as in the figure).
	a := w.mkLeafFrontier([2]float64{1, -30}, [2]float64{2, -20}, [2]float64{3, -10})
	b := w.mkLeafFrontier([2]float64{1.5, -25}, [2]float64{2.5, -15}, [2]float64{4, -5})
	// Remember each leaf's mean T by provenance ref, to check the merged
	// RAT against its actual predecessors.
	leafT := make(map[int32]float64)
	for _, f := range []*frontier{a, b} {
		for i := 0; i < f.len(); i++ {
			leafT[f.ref[i]] = f.tn[i]
		}
	}
	out, err := w.mergeLinear(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.len() > a.len()+b.len()-1 {
		t.Fatalf("merge emitted %d candidates, linear bound is %d", out.len(), a.len()+b.len()-1)
	}
	out = w.prn.prune(out)
	// Loads add; RATs are the pairwise min.
	for i := 0; i < out.len(); i++ {
		if out.ln[i] < 2.5 || out.ln[i] > 7 {
			t.Errorf("merged load %g outside pairwise-sum range", out.ln[i])
		}
		pr := w.eng.prov.at(out.ref[i])
		if pr.op != opMerge || pr.pred < 0 || pr.pred2 < 0 {
			t.Error("merge provenance missing")
			continue
		}
		if out.tn[i] != min(leafT[pr.pred], leafT[pr.pred2]) {
			t.Errorf("merged T %g != min(%g, %g)", out.tn[i], leafT[pr.pred], leafT[pr.pred2])
		}
	}
	// Result is a strict staircase.
	assertStaircase(t, out)
	// The best-RAT combination must survive: max over pairs of min(Ta, Tb)
	// subject to it being on the staircase.
	bestT := out.tn[out.len()-1]
	wantBest := -10.0 // min(-10, -5) from the two best-T inputs
	if bestT != wantBest {
		t.Errorf("best merged T = %g, want %g", bestT, wantBest)
	}
}

// TestMergeLinearEquivalentToCrossProduct verifies on random sorted
// staircase lists that linear merging (after pruning) keeps exactly the
// same non-dominated set as the full cross product (after pruning) — the
// optimality argument behind the O(n+m) merge.
func TestMergeLinearEquivalentToCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		w := testWorker(Rule2P)
		mk := func(n int) *frontier {
			pairs := make([][2]float64, n)
			for i := range pairs {
				pairs[i] = [2]float64{rng.Float64() * 50, -rng.Float64() * 50}
			}
			return w.prn.prune(w.mkLeafFrontier(pairs...))
		}
		a := mk(1 + rng.Intn(12))
		b := mk(1 + rng.Intn(12))
		lin, err := w.mergeLinear(0, a, b)
		if err != nil {
			t.Fatal(err)
		}
		lin = w.prn.prune(lin)
		cross, err := w.mergeCross(0, a, b)
		if err != nil {
			t.Fatal(err)
		}
		cross = w.prn.prune(cross)
		if lin.len() != cross.len() {
			t.Fatalf("trial %d: linear kept %d, cross kept %d", trial, lin.len(), cross.len())
		}
		for i := 0; i < lin.len(); i++ {
			if lin.ln[i] != cross.ln[i] || lin.tn[i] != cross.tn[i] {
				t.Fatalf("trial %d: staircase differs at %d: (%g,%g) vs (%g,%g)",
					trial, i, lin.ln[i], lin.tn[i], cross.ln[i], cross.tn[i])
			}
		}
	}
}

func TestMergeCrossSize(t *testing.T) {
	w := testWorker(Rule4P)
	a := w.mkLeafFrontier([2]float64{1, -1}, [2]float64{2, -2})
	b := w.mkLeafFrontier([2]float64{3, -3}, [2]float64{4, -4}, [2]float64{5, -5})
	out, err := w.mergeCross(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.len() != 6 {
		t.Errorf("cross product size = %d, want 6", out.len())
	}
}

func TestMergeCrossCapacity(t *testing.T) {
	w := testWorker(Rule4P)
	w.eng.maxCand = 5
	a := w.mkLeafFrontier([2]float64{1, -1}, [2]float64{2, -2}, [2]float64{3, -3})
	b := w.mkLeafFrontier([2]float64{4, -4}, [2]float64{5, -5})
	if _, err := w.mergeCross(0, a, b); err == nil {
		t.Error("capacity-exceeding cross product accepted")
	}
}

func TestMergeStatisticalCorrelation(t *testing.T) {
	// Merging correlated subtrees must use the correlation-aware min: with
	// perfectly correlated equal-variance inputs, min is exactly the
	// smaller input (no Clark penalty).
	w := testWorker(Rule2P)
	src := w.eng.space.Add(variation.ClassInterDie, "G")
	a := newFrontier(1, false)
	a.push(variation.Const(5),
		variation.NewForm(-10, []variation.Term{{ID: src, Coef: 2}}), -1, w.eng.space)
	b := newFrontier(1, false)
	b.push(variation.Const(5),
		variation.NewForm(-12, []variation.Term{{ID: src, Coef: 2}}), -1, w.eng.space)
	m := newFrontier(1, false)
	w.mergeCand(m, 0, a, 0, b, 0)
	if m.tn[0] != -12 {
		t.Errorf("correlated min mean = %g, want -12 exactly", m.tn[0])
	}
	if m.ln[0] != 10 {
		t.Errorf("merged load = %g, want 10", m.ln[0])
	}
	// Independent inputs do get the Clark penalty (mean below both).
	c := newFrontier(1, false)
	c.push(variation.Const(5),
		variation.NewForm(-10, []variation.Term{{ID: w.eng.space.Add(variation.ClassRandom, "x"), Coef: 2}}),
		-1, w.eng.space)
	d := newFrontier(1, false)
	d.push(variation.Const(5),
		variation.NewForm(-10, []variation.Term{{ID: w.eng.space.Add(variation.ClassRandom, "y"), Coef: 2}}),
		-1, w.eng.space)
	m2 := newFrontier(1, false)
	w.mergeCand(m2, 0, c, 0, d, 0)
	if !(m2.tn[0] < -10) {
		t.Errorf("independent equal-mean min = %g, want below -10", m2.tn[0])
	}
}

// TestMergePreservesBestUpperBound: the staircase after merge+prune always
// contains a candidate achieving the best possible merged T.
func TestMergePreservesBestUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		w := testWorker(Rule2P)
		mk := func(n int) *frontier {
			pairs := make([][2]float64, n)
			for i := range pairs {
				pairs[i] = [2]float64{rng.Float64() * 40, -rng.Float64() * 60}
			}
			return w.prn.prune(w.mkLeafFrontier(pairs...))
		}
		a := mk(1 + rng.Intn(10))
		b := mk(1 + rng.Intn(10))
		best := min(a.tn[a.len()-1], b.tn[b.len()-1])
		out, err := w.mergeLinear(0, a, b)
		if err != nil {
			t.Fatal(err)
		}
		out = w.prn.prune(out)
		got := make([]float64, out.len())
		copy(got, out.tn)
		sort.Float64s(got)
		if got[len(got)-1] != best {
			t.Fatalf("trial %d: best merged T %g, want %g", trial, got[len(got)-1], best)
		}
	}
}
