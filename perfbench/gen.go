package main

import (
	"math"
	"math/rand"
	"strings"

	"vabuf"
	"vabuf/internal/benchgen"
)

// Settings shared by every workload: the paper's 2P run at pbar 0.5,
// selecting the 95%-yield RAT, with 15% heterogeneous variation budgets.
// They equal vabufd's request defaults, so a request body names only the
// tree, the algorithm and the output it wants.
const (
	budget   = 0.15
	pbar     = 0.5
	quantQ   = 0.05
	hetero   = true
	lib32Len = 32
)

// radicalInverse is the base-2 van der Corput sequence: visiting strata
// in this order keeps any prefix of a run spread over the whole range.
func radicalInverse(k int) float64 {
	x, f := 0.0, 0.5
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			x += f
		}
		f /= 2
	}
	return x
}

// stratifiedSizes returns n sink counts, log-uniform over [lo, hi]: the
// k-th size falls in stratum radicalInverse(k) at a seeded offset, so
// every seed covers the range evenly and a prefix of the list does too.
func stratifiedSizes(rng *rand.Rand, n int, lo, hi float64) []int {
	out := make([]int, n)
	span := math.Log(hi / lo)
	for k := range out {
		u := (math.Floor(radicalInverse(k)*float64(n)) + rng.Float64()) / float64(n)
		out[k] = int(math.Round(lo * math.Exp(u*span)))
	}
	return out
}

// randomNet generates one routing tree with the given sink count.
func randomNet(rng *rand.Rand, sinks int) (*vabuf.Tree, error) {
	return benchgen.Random(benchgen.Spec{Sinks: sinks, Seed: rng.Int63()})
}

// modelConfig is vabufd's model recipe for (tree, algo): every class at
// the budget for wid, no spatial class for d2d. The oracle rebuilds
// models from it, so it must stay equal to the server's recipe.
func modelConfig(tree *vabuf.Tree, algo string) vabuf.ModelConfig {
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac = budget
	cfg.InterDieFrac = budget
	cfg.SpatialFrac = budget
	cfg.Heterogeneous = hetero
	if algo == "d2d" {
		cfg.SpatialFrac = 0
		cfg.Heterogeneous = false
	}
	return cfg
}

// buildModel returns a fresh model for the algorithm, nil for nom.
func buildModel(tree *vabuf.Tree, algo string) (*vabuf.VariationModel, error) {
	if algo == "nom" {
		return nil, nil
	}
	return vabuf.NewVariationModel(modelConfig(tree, algo))
}

// treeText serializes a tree in the rctree text format.
func treeText(t *vabuf.Tree) (string, error) {
	var b strings.Builder
	if err := vabuf.WriteTree(&b, t); err != nil {
		return "", err
	}
	return b.String(), nil
}

// pattern spreads the labels over n slots in proportion to their
// weights, the same way for every seed (smooth weighted round robin), so
// each stretch of a run carries the workload's mix.
func pattern(n int, labels []string, weights []int) []string {
	out := make([]string, n)
	cur := make([]int, len(labels))
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := range out {
		best := 0
		for j, w := range weights {
			cur[j] += w
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = labels[best]
	}
	return out
}
