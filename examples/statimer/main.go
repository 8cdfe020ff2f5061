// Statimer: block-based statistical static timing analysis — the SSTA
// substrate the paper's variation model was developed for (refs [1], [3]).
// A random combinational block is timed under correlated process
// variation: arrival times propagate as canonical forms with statistical
// MAX at reconvergence, and the analytic yield-versus-clock curve is
// cross-checked against Monte Carlo.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"vabuf"
	"vabuf/internal/variation"
)

func main() {
	layers := flag.Int("layers", 8, "logic depth")
	width := flag.Int("width", 6, "gates per layer")
	mc := flag.Int("mc", 20000, "Monte-Carlo samples")
	flag.Parse()

	// Variation sources: one global (inter-die) source every gate shares,
	// plus a private random source per gate.
	space := variation.NewSpace()
	global := space.Add(variation.ClassInterDie, "G")
	rng := rand.New(rand.NewSource(7))

	g := vabuf.NewTimingGraph()
	prev := make([]vabuf.TimingPin, *width)
	for i := range prev {
		prev[i] = g.AddPin(fmt.Sprintf("in%d", i))
	}
	gates := 0
	for l := 0; l < *layers; l++ {
		cur := make([]vabuf.TimingPin, *width)
		for i := range cur {
			cur[i] = g.AddPin(fmt.Sprintf("g%d_%d", l, i))
			for j := range prev {
				if rng.Float64() < 0.5 {
					// Gate delay ~ N(nominal, 8% global + 5% random).
					nominal := 20 + 15*rng.Float64()
					private := space.Add(variation.ClassRandom, "x")
					delay := variation.NewForm(nominal, []variation.Term{
						{ID: global, Coef: 0.08 * nominal},
						{ID: private, Coef: 0.05 * nominal},
					})
					if err := g.AddArc(prev[j], cur[i], delay); err != nil {
						log.Fatal(err)
					}
					gates++
				}
			}
		}
		prev = cur
	}
	fmt.Printf("block: %d pins, %d timing arcs, depth %d\n", g.NumPins(), gates, *layers)

	res, err := vabuf.AnalyzeTiming(g, nil, nil, space)
	if err != nil {
		log.Fatal(err)
	}
	// Worst arrival across outputs = -WNS with zero required times.
	worst := res.WNS.Scale(-1)
	fmt.Printf("statistical critical delay: %.1f ± %.1f ps\n",
		worst.Mean(), worst.Sigma(space))

	// Endpoint criticalities.
	fmt.Println("endpoint criticalities:")
	outs := g.Outputs()
	slices.SortFunc(outs, func(a, b vabuf.TimingPin) int {
		return cmp.Compare(res.EndpointCriticality[b], res.EndpointCriticality[a])
	})
	for _, o := range outs[:min(4, len(outs))] {
		fmt.Printf("  %-8s %.1f%%\n", g.Pin(o).Name, 100*res.EndpointCriticality[o])
	}

	// Yield vs clock period: analytic (normal) vs Monte Carlo.
	samples, err := vabuf.MonteCarloTiming(g, nil, space, *mc, 3)
	if err != nil {
		log.Fatal(err)
	}
	// Per-sample critical delay = max over outputs.
	crit := make([]float64, *mc)
	for s := range crit {
		worstS := 0.0
		for o := range samples {
			if samples[o][s] > worstS {
				worstS = samples[o][s]
			}
		}
		crit[s] = worstS
	}
	slices.Sort(crit)
	fmt.Println("\nclock period ->  analytic yield | Monte-Carlo yield")
	mean := worst.Mean()
	for _, f := range []float64{0.95, 1.0, 1.05, 1.10} {
		period := mean * f
		analytic := yieldAt(worst, space, period)
		met, _ := slices.BinarySearch(crit, period)
		mcYield := float64(met) / float64(len(crit))
		fmt.Printf("  %7.1f ps   ->  %6.1f%%        | %6.1f%%\n",
			period, 100*analytic, 100*mcYield)
	}
}

// yieldAt returns P(critical delay <= period) under the normal model.
func yieldAt(worst vabuf.Form, space *vabuf.VariationSpace, period float64) float64 {
	sigma := worst.Sigma(space)
	if sigma == 0 {
		if worst.Mean() <= period {
			return 1
		}
		return 0
	}
	z := (period - worst.Mean()) / sigma
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
