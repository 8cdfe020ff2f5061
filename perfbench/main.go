// Command perfbench is the repository benchmark: it runs one seeded
// workload against the public entry points of the engine (core via the
// vabuf facade), the vabufd service (internal/server) and the vabufr
// router (internal/router), checks every answer with an oracle after the
// timed window, and prints its metrics. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run is repeated with spans recorded at the benchmark-side layer
// boundaries and the metrics are the per-layer set. Run it through
// perfbench/run.sh from the repository root, for example
//
//	bash perfbench/run.sh --workload serve_mix --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Times are CPU times of the whole process (caller,
// servers and router alike): on a shared host the wall clock also counts
// the time the host gives to other tenants, which CPU time leaves out.
// The wall-clock figures are reported per layer, under client.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the traced run's metrics of single layers. A layer a
// workload never reaches reports 0.
var perLayer = []metricSpec{
	{"variation.terms_per_candidate", "count"},
	{"variation.axpy_in_ns", "ns"},
	{"variation.min_in_ns", "ns"},
	{"variation.sigma_diff_ns", "ns"},
	{"core.insert_ms.wid", "ms"},
	{"core.insert_ms.d2d", "ms"},
	{"core.insert_ms.nom", "ms"},
	{"core.insert_ms.lib32", "ms"},
	{"core.generated_per_op", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.peak_list", "count"},
	{"core.merges_per_op", "count"},
	{"core.hull_skip_ratio", "ratio"},
	{"core.hull_fallback_rate", "ratio"},
	{"core.workers_mean", "count"},
	{"core.arena_mb_per_op", "MB"},
	{"yield.propagate_ms", "ms"},
	{"yield.req_p50_ms", "ms"},
	{"yield.mc_samples_per_req", "count"},
	{"rctree.read_ms_per_op", "ms"},
	{"server.result_hit_rate", "ratio"},
	{"server.subtree_hit_rate", "ratio"},
	{"server.eco_subtree_hit_rate", "ratio"},
	{"server.tree_hit_rate", "ratio"},
	{"server.model_hit_rate", "ratio"},
	{"server.queue_wait_mean_ms", "ms"},
	{"server.rejected", "count"},
	{"server.dp_ms.fresh", "ms"},
	{"server.dp_ms.eco", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.repeat_p50_ms", "ms"},
	{"server.eco_p50_ms", "ms"},
	{"router.hop_ms", "ms"},
	{"router.owner_hit_rate", "ratio"},
	{"router.amplification", "ratio"},
	{"router.peer_lookup_hits", "count"},
	{"router.peer_fills", "count"},
	{"router.failovers", "count"},
	{"client.ops_per_s", "1/s"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_p90_ms", "ms"},
	{"client.latency_mean_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.achieved_qps", "1/s"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// outcome is what one timed window produced.
type outcome struct {
	attempted, failed, wrong int
	// latencies of every answered operation, in ms, timed from when it
	// was due (open loop) or started (closed loop); at is that moment,
	// measured from the start of the window. Failed operations are left
	// out, so a fast refusal cannot lower a latency.
	latMS []float64
	at    []time.Duration
	// elapsed is the window's wall time until the last answer arrived.
	elapsed time.Duration
	// allocBytes is the process-wide heap allocation during the window,
	// less offClockAlloc, what the window allocated with its clock
	// stopped; cpu is the process's CPU time during the window, less
	// offClockCPU, likewise.
	allocBytes, offClockAlloc uint64
	cpu, offClockCPU          time.Duration
	// layers holds the per-layer metrics; filled only by a traced run.
	layers map[string]float64
	// mismatches describes up to a few wrong answers.
	mismatches []string
}

func (o *outcome) noteWrong(format string, args ...any) {
	o.wrong++
	if len(o.mismatches) < 5 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload, ready to run its timed window.
type instance interface {
	// run executes the timed window; tr is nil for the untraced run.
	run(tr *tracer) *outcome
	// check runs the answer oracle over the window's answers (after the
	// window, so it takes no CPU from the system under test) and, with a
	// tracer, computes the per-layer metrics.
	check(o *outcome, tr *tracer)
	close()
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed int64, window time.Duration) (instance, error){
	"dp_cold":    setupDPCold,
	"serve_mix":  setupServeMix,
	"fleet_warm": setupFleetWarm,
}

// latencySlices is how many equal slices of the window the latency
// metrics are taken over: each is the median of its per-slice values, so
// outside noise that spoils one slice does not move the figure.
const latencySlices = 6

// sliced applies stat to the latencies of each slice of the window and
// returns the median of the results.
func sliced(o *outcome, window time.Duration, stat func([]float64) float64) float64 {
	parts := make([][]float64, latencySlices)
	for i, lat := range o.latMS {
		k := min(max(int(o.at[i]*latencySlices/window), 0), latencySlices-1)
		parts[k] = append(parts[k], lat)
	}
	vals := make([]float64, 0, latencySlices)
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, stat(p))
		}
	}
	return median(vals)
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median of their CPU times, so one slow set-up does not decide the
// figure.
const setupRounds = 5

// result is the final JSON line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// add counts a window's operations into the result. A correct run
// answers every operation, and answers it right: a failed operation (an
// error, a refusal, a non-200 reply) makes the run incorrect just as a
// wrong answer does, so failing fast cannot pass for a speed-up.
func (r *result) add(o *outcome) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	r.Attempted += o.attempted
	r.Failed += o.failed + o.wrong
	r.Correct = r.Correct && o.failed == 0 && o.wrong == 0
}

func main() {
	workload := flag.String("workload", "", "workload: dp_cold, serve_mix or fleet_warm")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1,
		filepath.Join(".bench_build", "trace"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupRounds times, runs the timed window on
// the last set-up, checks the answers, and assembles the result. A traced
// run first runs an untraced window so the tracing overhead is measured.
func run(name string, seed int64, window time.Duration, traced bool, traceDir string) (*result, error) {
	setup, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want dp_cold, serve_mix or fleet_warm)", name)
	}
	if window <= 0 {
		return nil, fmt.Errorf("window must be positive, got %v", window)
	}
	plain, setups, err := runOnce(setup, seed, window, nil)
	if err != nil {
		return nil, err
	}
	printOutcome(name, "untraced", plain, setups)
	res := &result{Metrics: make(map[string]metricVal)}
	res.add(plain)
	answered := float64(max(plain.attempted-plain.failed, 1))
	if !traced {
		vals := map[string]float64{
			"setup_s":         median(setups),
			"cpu_ms_per_op":   ms(plain.cpu) / answered,
			"alloc_mb_per_op": float64(plain.allocBytes) / 1e6 / float64(max(plain.attempted, 1)),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricVal{Value: vals[m.name], Unit: m.unit}
			fmt.Printf("%-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
		}
		return res, nil
	}
	tr := newTracer()
	tracedOut, _, err := runOnce(setup, seed, window, tr)
	if err != nil {
		return nil, err
	}
	printOutcome(name, "traced", tracedOut, nil)
	rows := tr.table()
	printTable(os.Stdout, rows)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	p50, tp50 := sliced(plain, window, median), sliced(tracedOut, window, median)
	tracedOut.layers["client.ops_per_s"] = answered / plain.elapsed.Seconds()
	tracedOut.layers["client.latency_p50_ms"] = p50
	tracedOut.layers["client.latency_p90_ms"] = sliced(plain, window, func(xs []float64) float64 { return quantile(xs, 0.9) })
	tracedOut.layers["client.latency_mean_ms"] = sliced(plain, window, mean)
	tracedOut.layers["trace.overhead_p50_ms"] = tp50 - p50
	tracedOut.layers["trace.overhead_pct"] = 100 * ratio(tp50-p50, p50)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricVal{Value: tracedOut.layers[m.name], Unit: m.unit}
		fmt.Printf("%-32s %14.4f %s\n", m.name, tracedOut.layers[m.name], m.unit)
	}
	res.add(tracedOut)
	return res, nil
}

// runOnce sets the workload up setupRounds times (returning the CPU
// time of each set-up in seconds), runs the window on the last instance
// and checks it.
func runOnce(setup func(int64, time.Duration) (instance, error), seed int64,
	window time.Duration, tr *tracer) (*outcome, []float64, error) {
	var times []float64
	var inst instance
	for r := 0; r < setupRounds; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		inst, err = setup(seed, window)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, (cpuTime() - c0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	alloc0, cpu0 := totalAlloc(), cpuTime()
	out := inst.run(tr)
	out.cpu = cpuTime() - cpu0 - out.offClockCPU
	out.allocBytes = totalAlloc() - alloc0 - out.offClockAlloc
	if tr != nil {
		out.layers = make(map[string]float64)
	}
	inst.check(out, tr)
	return out, times, nil
}

func printOutcome(name, kind string, o *outcome, setups []float64) {
	fmt.Printf("%s (%s): attempted=%d failed=%d wrong=%d error_rate=%.4f elapsed=%.2fs cpu=%.2fs setup=%.3fs\n",
		name, kind, o.attempted, o.failed, o.wrong,
		ratio(float64(o.failed+o.wrong), float64(o.attempted)), o.elapsed.Seconds(), o.cpu.Seconds(), median(setups))
	if len(setups) > 0 {
		fmt.Printf("  set-up rounds, CPU s: %s\n", strings.Trim(fmt.Sprint(setups), "[]"))
	}
	fmt.Printf("  whole-window latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f (n=%d)\n",
		quantile(o.latMS, 0.5), quantile(o.latMS, 0.9), quantile(o.latMS, 0.99),
		quantile(o.latMS, 1), len(o.latMS))
	for _, m := range o.mismatches {
		fmt.Println("  WRONG:", m)
	}
}
