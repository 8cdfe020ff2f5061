package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"vabuf"
	"vabuf/internal/benchgen"
	"vabuf/internal/core"
)

// dp_cold: in-process core.Insert through the vabuf facade, closed loop,
// one caller, engine-default parallelism, no subtree cache. Every
// operation gets a freshly built model, so no run inherits lazily
// allocated sources from an earlier one.

const (
	// dpCorpus is the number of distinct nets; operations cycle through
	// them in a fixed interleaving of the class mix.
	dpCorpus = 240
	// dpMinSinks/dpMaxSinks bound the Table 1 sizes (r1 to r5). The
	// 32-cell nets stop at r3's size (the repo's InsertLib32 benches):
	// one 3100-sink 32-cell run allocates ~600 MB of candidates.
	dpMinSinks, dpMaxSinks = 250, 3100
	dpMaxLib32Sinks        = 900
	// dpOpsPerSecond sizes the pre-built model pool: about twice the
	// 25–31 operations per second measured on 2 vCPUs. A faster engine or
	// machine that drains the pool gets the next batch built with the
	// clock stopped, so the pool size never shortens the window.
	dpOpsPerSecond = 64
	// dpRefShare is the share of each class's nets that the oracle also
	// runs on the independent reference path (serial, hull kernel off).
	// The first nets of a class cover its size range evenly.
	dpRefShare = 8
)

// dpClasses is the class mix: 60% WID 2P, 15% D2D, 10% NOM and 15% WID
// with the 32-cell scaled library (the hull kernel's case).
var (
	dpClasses = []string{"wid", "d2d", "nom", "lib32"}
	dpWeights = []int{12, 3, 2, 3}
)

type dpNet struct {
	class, algo string
	tree        *vabuf.Tree
	lib         vabuf.Library
	// ref marks the nets the oracle re-runs on the reference path.
	ref bool
}

// dpOp keeps what the oracle and the layer metrics need from one run;
// the result's RAT form is dropped, since its terms may pin the run's
// arena slabs.
type dpOp struct {
	net         int
	latMS       float64
	mean, sigma float64
	assign      map[vabuf.NodeID]int
	stats       core.Stats
	err         error
}

type dpCold struct {
	window time.Duration
	nets   []dpNet
	models []*vabuf.VariationModel
	ops    []dpOp
}

func setupDPCold(seed int64, window time.Duration) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	lib32, err := benchgen.ScaledLibrary(lib32Len)
	if err != nil {
		return nil, err
	}
	classes := pattern(dpCorpus, dpClasses, dpWeights)
	sizes := make(map[string][]int)
	for i, c := range dpClasses {
		hi := float64(dpMaxSinks)
		if c == "lib32" {
			hi = dpMaxLib32Sinks
		}
		sizes[c] = stratifiedSizes(rng, dpCorpus*dpWeights[i]/20, dpMinSinks, hi)
	}
	d := &dpCold{window: window}
	refs := make(map[string]int)
	for _, c := range dpClasses {
		refs[c] = (len(sizes[c]) + dpRefShare - 1) / dpRefShare
	}
	for _, c := range classes {
		n := sizes[c][0]
		sizes[c] = sizes[c][1:]
		tree, err := randomNet(rng, n)
		if err != nil {
			return nil, err
		}
		net := dpNet{class: c, algo: c, tree: tree, lib: vabuf.DefaultLibrary(), ref: refs[c] > 0}
		refs[c]--
		if c == "lib32" {
			net.algo, net.lib = "wid", lib32
		}
		d.nets = append(d.nets, net)
	}
	if err := d.addModels(int(dpOpsPerSecond*window.Seconds()) + dpCorpus); err != nil {
		return nil, err
	}
	return d, nil
}

// addModels extends the model pool by n fresh models; model k serves
// operation k, which runs net k mod dpCorpus.
func (d *dpCold) addModels(n int) error {
	for range n {
		net := d.nets[len(d.models)%dpCorpus]
		m, err := buildModel(net.tree, net.algo)
		if err != nil {
			return err
		}
		d.models = append(d.models, m)
	}
	return nil
}

func (d *dpCold) close() {}

func (d *dpCold) run(tr *tracer) *outcome {
	o := &outcome{}
	// paused is the time spent refilling the model pool, which is off the
	// clock: the window and every op's start time count only the rest.
	var paused time.Duration
	refills := 0
	start := time.Now()
	active := func() time.Duration { return time.Since(start) - paused }
	for k := 0; active() < d.window; k++ {
		if k == len(d.models) {
			t, a, c := time.Now(), totalAlloc(), cpuTime()
			err := d.addModels(dpCorpus)
			paused += time.Since(t)
			refills++
			o.offClockAlloc += totalAlloc() - a
			o.offClockCPU += cpuTime() - c
			if err != nil {
				o.attempted++
				o.failed++
				o.mismatches = append(o.mismatches, fmt.Sprintf("refilling the model pool: %v", err))
				break
			}
		}
		net := &d.nets[k%dpCorpus]
		opts := vabuf.Options{
			Library:        net.lib,
			Model:          d.models[k],
			PbarL:          pbar,
			PbarT:          pbar,
			SelectQuantile: quantQ,
		}
		op := tr.begin("op", spanRef{})
		sp := tr.begin("core.Insert", op)
		at := active()
		t0 := time.Now()
		res, err := vabuf.Insert(net.tree, opts)
		lat := time.Since(t0)
		tr.end(sp)
		tr.end(op)
		// The model is spent; the oracle rebuilds its own from the recipe.
		d.models[k] = nil
		rec := dpOp{net: k % dpCorpus, latMS: ms(lat), err: err}
		o.attempted++
		if err != nil {
			o.failed++
			d.ops = append(d.ops, rec)
			continue
		}
		rec.mean, rec.sigma, rec.assign, rec.stats = res.Mean, res.Sigma, res.Assignment, res.Stats
		d.ops = append(d.ops, rec)
		o.at = append(o.at, at)
		o.latMS = append(o.latMS, ms(lat))
	}
	o.elapsed = active()
	if refills > 0 {
		fmt.Printf("dp_cold: the model pool ran out %d times; refilled with the clock stopped (%v)\n", refills, paused)
	}
	return o
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// check re-propagates the first answer for every net and requires every
// later answer for the same net to be identical to it. The reference
// nets are also run again serially with the hull kernel off, a path
// that shares neither the hull kernel nor the worker pool with the
// timed runs; the engine promises bit-identical results on both, so a
// change that prunes away the best answer shows here even when its own
// answer re-propagates consistently.
func (d *dpCold) check(o *outcome, tr *tracer) {
	first := make(map[int]*dpOp)
	var forms []ratForm
	var refs []int
	for i := range d.ops {
		op := &d.ops[i]
		if op.err != nil {
			continue
		}
		net := &d.nets[op.net]
		if ref, ok := first[op.net]; ok {
			if op.mean != ref.mean || op.sigma != ref.sigma || !sameAssignment(op.assign, ref.assign) {
				o.noteWrong("net %d (%s): answer differs from the first run of the same net", op.net, net.class)
			}
			continue
		}
		first[op.net] = op
		if net.ref {
			refs = append(refs, op.net)
		}
		root := tr.begin("oracle", spanRef{})
		rf, err := checkAnswer(tr, root, net.tree, net.lib, net.algo, op.assign, op.mean, op.sigma)
		tr.end(root)
		if err != nil {
			o.noteWrong("net %d (%s, %d sinks): %v", op.net, net.class, net.tree.NumSinks(), err)
			continue
		}
		forms = append(forms, rf)
	}
	for i, err := range d.referenceRuns(tr, refs, first) {
		if err != nil {
			net := &d.nets[refs[i]]
			o.noteWrong("net %d (%s, %d sinks): %v", refs[i], net.class, net.tree.NumSinks(), err)
		}
	}
	if tr == nil {
		return
	}
	byClass := make(map[string][]float64)
	var stats []core.Stats
	for _, op := range d.ops {
		if op.err == nil {
			byClass[d.nets[op.net].class] = append(byClass[d.nets[op.net].class], op.latMS)
			stats = append(stats, op.stats)
		}
	}
	for _, c := range dpClasses {
		o.layers["core.insert_ms."+c] = median(byClass[c])
	}
	coreLayers(o.layers, stats)
	o.layers["yield.propagate_ms"] = median(spanDurationsMS(tr, "yield.Propagate"))
	o.layers["variation.axpy_in_ns"], o.layers["variation.min_in_ns"], o.layers["variation.sigma_diff_ns"] = timeKernels(forms)
}

// referenceRuns runs each listed net serially with the hull kernel off,
// on a fresh model, nproc nets at a time, and compares the result with
// the net's first timed answer.
func (d *dpCold) referenceRuns(tr *tracer, nets []int, first map[int]*dpOp) []error {
	errs := make([]error, len(nets))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				net, got := &d.nets[nets[i]], first[nets[i]]
				model, err := buildModel(net.tree, net.algo)
				if err != nil {
					errs[i] = fmt.Errorf("rebuilding model: %w", err)
					continue
				}
				root := tr.begin("oracle", spanRef{})
				sp := tr.begin("core.Insert.reference", root)
				res, err := vabuf.Insert(net.tree, vabuf.Options{
					Library:        net.lib,
					Model:          model,
					PbarL:          pbar,
					PbarT:          pbar,
					SelectQuantile: quantQ,
					Parallelism:    1,
					HullBuffering:  vabuf.HullOff,
				})
				tr.end(sp)
				tr.end(root)
				switch {
				case err != nil:
					errs[i] = fmt.Errorf("reference run: %w", err)
				case res.Mean != got.mean || res.Sigma != got.sigma || !sameAssignment(res.Assignment, got.assign):
					errs[i] = fmt.Errorf("answer %v/%v (%d buffers) differs from the serial hull-off reference %v/%v (%d buffers)",
						got.mean, got.sigma, len(got.assign), res.Mean, res.Sigma, len(res.Assignment))
				}
			}
		}()
	}
	for i := range nets {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

func sameAssignment(a, b map[vabuf.NodeID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, x := range a {
		if y, ok := b[id]; !ok || x != y {
			return false
		}
	}
	return true
}

// coreLayers fills the core.* and variation.terms_per_candidate metrics
// from the engine's own counters.
func coreLayers(layers map[string]float64, stats []core.Stats) {
	var gen, pruned, merges, skipped, sites, fallbacks, terms, cands, arena, workers float64
	peaks := make([]float64, 0, len(stats))
	for _, s := range stats {
		gen += float64(s.Generated)
		pruned += float64(s.Pruned)
		merges += float64(s.Merges)
		skipped += float64(s.HullSkipped)
		sites += float64(s.HullSites)
		fallbacks += float64(s.HullFallbacks)
		terms += float64(s.ArenaTerms)
		cands += float64(s.ArenaCandidates)
		arena += float64(s.ArenaBytes)
		workers += float64(s.Workers)
		peaks = append(peaks, float64(s.PeakList))
	}
	n := float64(len(stats))
	layers["variation.terms_per_candidate"] = ratio(terms, cands)
	layers["core.generated_per_op"] = ratio(gen, n)
	layers["core.prune_ratio"] = ratio(pruned, gen)
	layers["core.peak_list"] = median(peaks)
	layers["core.merges_per_op"] = ratio(merges, n)
	layers["core.hull_skip_ratio"] = ratio(skipped, gen+skipped)
	layers["core.hull_fallback_rate"] = ratio(fallbacks, sites)
	layers["core.workers_mean"] = ratio(workers, n)
	layers["core.arena_mb_per_op"] = ratio(arena/1e6, n)
}

// spanDurationsMS returns the durations of the named spans.
func spanDurationsMS(tr *tracer, name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
