package sta

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"vabuf/internal/variation"
)

// chainGraph builds a small random DAG with shared and private sources.
func chainGraph(t *testing.T, seed int64) (*Graph, *variation.Space) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := variation.NewSpace()
	shared := space.Add(variation.ClassInterDie, "G")
	g := NewGraph()
	const layers, width = 4, 3
	prev := make([]PinID, width)
	for i := range prev {
		prev[i] = g.AddPin("")
	}
	for l := 0; l < layers; l++ {
		cur := make([]PinID, width)
		for i := range cur {
			cur[i] = g.AddPin("")
			for j := range prev {
				if rng.Float64() < 0.7 {
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
	return g, space
}

// TestMonteCarloParallelWorkerInvariance: the sharded sampler returns
// bit-identical matrices for every worker count, because the shard layout
// and per-shard RNG streams depend only on (n, seed).
func TestMonteCarloParallelWorkerInvariance(t *testing.T) {
	g, space := chainGraph(t, 11)
	ref, err := MonteCarloParallel(g, nil, space, 1001, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := MonteCarloParallel(g, nil, space, 1001, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for s := range ref[i] {
				if got[i][s] != ref[i][s] {
					t.Fatalf("workers=%d: sample [%d][%d] = %v, want %v",
						workers, i, s, got[i][s], ref[i][s])
				}
			}
		}
	}
}

// TestMonteCarloParallelQuantiles: the sharded stream reproduces the
// serial sampler's distribution — quantiles agree to sampling noise even
// though the streams differ sample-by-sample.
func TestMonteCarloParallelQuantiles(t *testing.T) {
	g, space := chainGraph(t, 23)
	const n = 20000
	serial, err := MonteCarlo(g, nil, space, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := MonteCarloParallel(g, nil, space, n, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	quantile := func(xs []float64, q float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[int(q*float64(len(s)-1))]
	}
	for i := range serial {
		for _, q := range []float64{0.05, 0.5, 0.95} {
			a := quantile(serial[i], q)
			b := quantile(sharded[i], q)
			if a == 0 && b == 0 {
				continue // unreachable output pin
			}
			if math.Abs(a-b) > 0.02*math.Abs(a)+0.2 {
				t.Errorf("output %d q%.2f: serial %.3f vs sharded %.3f", i, q, a, b)
			}
		}
	}
}

func TestMonteCarloParallelValidation(t *testing.T) {
	g, space := chainGraph(t, 3)
	if _, err := MonteCarloParallel(g, nil, space, 0, 1, 2); err == nil {
		t.Error("zero samples accepted")
	}
	// Fewer samples than shards still covers every sample exactly once.
	out, err := MonteCarloParallel(g, nil, space, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if len(out[i]) != 3 {
			t.Errorf("output %d: %d samples, want 3", i, len(out[i]))
		}
	}
}
