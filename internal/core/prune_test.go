package core

import (
	"math/rand"
	"testing"

	"vabuf/internal/variation"
)

// mkFrontier builds a frontier of deterministic (L, T) candidates with no
// provenance (ref -1); sigmas are carried when needSigmas is set.
func mkFrontier(space *variation.Space, needSigmas bool, pairs ...[2]float64) *frontier {
	f := newFrontier(len(pairs), needSigmas)
	for _, c := range pairs {
		f.push(variation.Const(c[0]), variation.Const(c[1]), -1, space)
	}
	return f
}

// pushStatCand appends a candidate whose L and T each load one private
// source.
func pushStatCand(f *frontier, space *variation.Space, l, sl, t, st float64) {
	f.push(
		variation.NewForm(l, []variation.Term{{ID: space.Add(variation.ClassRandom, "l"), Coef: sl}}),
		variation.NewForm(t, []variation.Term{{ID: space.Add(variation.ClassRandom, "t"), Coef: st}}),
		-1, space)
}

func defaultPruner(space *variation.Space) *pruner {
	var st Stats
	opts := Options{PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP()}
	return newPruner(space, opts, &st)
}

// assertStaircase checks the frontier is strictly ascending in both means.
func assertStaircase(t *testing.T, f *frontier) {
	t.Helper()
	for i := 1; i < f.len(); i++ {
		if !(f.ln[i] > f.ln[i-1] && f.tn[i] > f.tn[i-1]) {
			t.Errorf("output not strictly ascending at %d: (%g,%g) after (%g,%g)",
				i, f.ln[i], f.tn[i], f.ln[i-1], f.tn[i-1])
		}
	}
}

func TestPrune2PMeanPath(t *testing.T) {
	space := variation.NewSpace()
	p := defaultPruner(space)
	f := mkFrontier(space, false,
		[2]float64{5, -10}, // dominated by (3, -8)
		[2]float64{3, -8},
		[2]float64{1, -20},
		[2]float64{7, -5},
		[2]float64{9, -5}, // dominated: same T, more load
	)
	out := p.prune(f)
	if out.len() != 3 {
		t.Fatalf("kept %d candidates: %v / %v", out.len(), out.ln, out.tn)
	}
	assertStaircase(t, out)
	if p.stats.Pruned != 2 {
		t.Errorf("pruned counter = %d, want 2", p.stats.Pruned)
	}
}

func TestPrune2PDuplicates(t *testing.T) {
	space := variation.NewSpace()
	p := defaultPruner(space)
	out := p.prune(mkFrontier(space, false,
		[2]float64{2, -3}, [2]float64{2, -3}, [2]float64{2, -3}))
	if out.len() != 1 {
		t.Errorf("duplicates not collapsed: kept %d", out.len())
	}
}

func TestPrune2PSmallLists(t *testing.T) {
	space := variation.NewSpace()
	p := defaultPruner(space)
	if got := p.prune(nil); got.len() != 0 {
		t.Error("nil frontier changed")
	}
	one := mkFrontier(space, false, [2]float64{1, 1})
	if got := p.prune(one); got.len() != 1 {
		t.Error("singleton pruned")
	}
}

// TestPrune2PInvariantsRandom checks on random deterministic candidate
// sets that the survivors form a strict staircase and that no survivor is
// dominated by any other survivor (pairwise, not just adjacent).
func TestPrune2PInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		space := variation.NewSpace()
		p := defaultPruner(space)
		n := 2 + rng.Intn(60)
		f := newFrontier(n, false)
		for i := 0; i < n; i++ {
			f.push(variation.Const(rng.Float64()*100), variation.Const(-rng.Float64()*100), -1, space)
		}
		out := p.prune(f)
		for i := 1; i < out.len(); i++ {
			if !(out.ln[i] > out.ln[i-1]) || !(out.tn[i] > out.tn[i-1]) {
				t.Fatalf("trial %d: not a strict staircase", trial)
			}
		}
		for i := 0; i < out.len(); i++ {
			for j := 0; j < out.len(); j++ {
				if i == j {
					continue
				}
				if out.ln[i] <= out.ln[j] && out.tn[i] >= out.tn[j] {
					t.Fatalf("trial %d: survivor %d dominated by %d", trial, j, i)
				}
			}
		}
	}
}

func TestPrune2PHigherPbarKeepsMore(t *testing.T) {
	// With pbar > 0.5 dominance requires a confident win, so fewer
	// candidates are pruned than at pbar = 0.5 when variances overlap.
	space := variation.NewSpace()
	var stLow, stHigh Stats
	low := newPruner(space, Options{PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP()}, &stLow)
	high := newPruner(space, Options{PbarL: 0.95, PbarT: 0.95, FourP: DefaultFourP()}, &stHigh)
	mk := func(sigmas bool) *frontier {
		// Overlapping distributions: means differ by less than a sigma.
		f := newFrontier(8, sigmas)
		for i := 0; i < 8; i++ {
			pushStatCand(f, space, 10+0.2*float64(i), 2.0, -50-0.2*float64(i), 2.0)
		}
		return f
	}
	keptLow := low.prune(mk(low.needSigmas())).len()
	keptHigh := high.prune(mk(high.needSigmas())).len()
	if keptHigh <= keptLow {
		t.Errorf("pbar 0.95 kept %d, pbar 0.5 kept %d; want more at higher pbar",
			keptHigh, keptLow)
	}
	if keptLow != 1 {
		t.Errorf("pbar 0.5 staircase should collapse this chain to 1, kept %d", keptLow)
	}
}

func TestPrune4PPartialOrder(t *testing.T) {
	space := variation.NewSpace()
	var st Stats
	p := newPruner(space, Options{
		Rule: Rule4P, PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP(),
	}, &st)
	// Clearly separated candidates: 4P dominance applies.
	sep := newFrontier(2, true)
	pushStatCand(sep, space, 1, 0.01, -5, 0.01)   // tiny load, great RAT
	pushStatCand(sep, space, 50, 0.01, -80, 0.01) // huge load, poor RAT
	out := p.prune(sep)
	if out.len() != 1 || out.ln[0] != 1 {
		t.Fatalf("4P failed to prune a clearly dominated candidate: kept %d", out.len())
	}
	// Overlapping quantile bands: no pruning (the partial-order weakness).
	ovl := newFrontier(2, true)
	pushStatCand(ovl, space, 10, 5, -50, 5)
	pushStatCand(ovl, space, 11, 5, -51, 5)
	out = p.prune(ovl)
	if out.len() != 2 {
		t.Errorf("4P pruned overlapping candidates: kept %d", out.len())
	}
}

// TestDominates2PMatchesDirectProbability pins the bound-based fast path
// of dominates2P to the direct eq. 8 evaluation on the forms.
func TestDominates2PMatchesDirectProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	space := variation.NewSpace()
	nsrc := 6
	for i := 0; i < nsrc; i++ {
		space.Add(variation.ClassRandom, "s")
	}
	mkForms := func() (variation.Form, variation.Form) {
		terms := func() []variation.Term {
			var ts []variation.Term
			for id := 0; id < nsrc; id++ {
				if rng.Float64() < 0.6 {
					ts = append(ts, variation.Term{ID: variation.SourceID(id), Coef: rng.NormFloat64() * 3})
				}
			}
			return ts
		}
		return variation.NewForm(rng.Float64()*20, terms()),
			variation.NewForm(-rng.Float64()*50, terms())
	}
	for _, pbar := range []float64{0.6, 0.8, 0.95} {
		var st Stats
		p := newPruner(space, Options{PbarL: pbar, PbarT: pbar, FourP: DefaultFourP()}, &st)
		for trial := 0; trial < 2000; trial++ {
			aL, aT := mkForms()
			bL, bT := mkForms()
			if aL.Nominal > bL.Nominal {
				aL, aT, bL, bT = bL, bT, aL, aT // the sweep guarantees this order
			}
			f := newFrontier(2, true)
			f.push(aL, aT, -1, space)
			f.push(bL, bT, -1, space)
			got := p.dominates2P(f, 0, 1)
			want := variation.ProbGreater(bL, aL, space) >= pbar &&
				variation.ProbGreater(aT, bT, space) >= pbar
			if got != want {
				t.Fatalf("pbar %g trial %d: dominates=%v direct=%v\na=(%+v, %+v)\nb=(%+v, %+v)",
					pbar, trial, got, want, aL, aT, bL, bT)
			}
		}
	}
}

func TestNeedSigmas(t *testing.T) {
	space := variation.NewSpace()
	var st Stats
	if newPruner(space, Options{PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP()}, &st).needSigmas() {
		t.Error("mean-path pruner claims to need sigmas")
	}
	if !newPruner(space, Options{PbarL: 0.7, PbarT: 0.5, FourP: DefaultFourP()}, &st).needSigmas() {
		t.Error("pbar>0.5 pruner does not need sigmas")
	}
	if !newPruner(space, Options{Rule: Rule4P, PbarL: 0.5, PbarT: 0.5, FourP: DefaultFourP()}, &st).needSigmas() {
		t.Error("4P pruner does not need sigmas")
	}
}
