package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"vabuf"
	"vabuf/internal/server"
	"vabuf/internal/yield"
)

// TestWorkloadsShort runs every workload at reduced length, untraced
// and traced, and requires correct answers and every metric.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 7, 1500*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, m.name, v)
				}
				if !traced && v.Value <= 0 && m.name != "setup_s" {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.name, v.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestOracleRejectsCorruptAnswer shows the oracle accepts a true answer
// and rejects one with a corrupted number or buffer.
func TestOracleRejectsCorruptAnswer(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Sinks: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	model, err := buildModel(tree, "wid")
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	opts := vabuf.Options{Library: lib, Model: model}
	res, err := vabuf.Insert(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuffers == 0 {
		t.Fatal("test net got no buffers; pick another seed")
	}
	answer := server.NewInsertResult(tree, lib, "wid", opts, res, time.Millisecond, true)
	encode := func(a server.InsertResult) []byte {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := encode(answer)
	if _, _, err := checkInsertBody(nil, spanRef{}, tree, "wid", good); err != nil {
		t.Fatalf("oracle rejected a true answer: %v", err)
	}

	badMean := answer
	badMean.MeanPS = math.Nextafter(answer.MeanPS, math.Inf(1))
	if _, _, err := checkInsertBody(nil, spanRef{}, tree, "wid", encode(badMean)); err == nil {
		t.Error("oracle accepted a mean one ulp off")
	}

	badBuffer := answer
	badBuffer.Assignment = slices.Clone(answer.Assignment)
	for i, b := range lib {
		if b.Name != badBuffer.Assignment[0].Buffer {
			badBuffer.Assignment[0].Buffer = lib[i].Name
			break
		}
	}
	if _, _, err := checkInsertBody(nil, spanRef{}, tree, "wid", encode(badBuffer)); err == nil {
		t.Error("oracle accepted an answer with a swapped buffer")
	}

	// Repeats may differ in timings and cache flags, nothing else.
	retimed := answer
	retimed.ElapsedMS, retimed.TreeCacheHit = 99, true
	if err := sameAnswer(good, encode(retimed)); err != nil {
		t.Errorf("timing and cache flags made answers differ: %v", err)
	}
	if err := sameAnswer(good, encode(badMean)); err == nil {
		t.Error("sameAnswer missed a changed mean")
	}
}

// TestFailuresFailTheRun shows that a failed operation makes the run
// incorrect even when every answer it got was right, and that a failed
// request's latency is left out of the latency figures.
func TestFailuresFailTheRun(t *testing.T) {
	ts := []timing{
		{due: 0, dispatched: 0, done: 30 * time.Millisecond},
		{due: 10 * time.Millisecond, dispatched: 10 * time.Millisecond, done: 11 * time.Millisecond},
	}
	o := timedOutcome(ts, func(i int) bool { return i == 0 })
	if o.attempted != 2 || o.failed != 1 || len(o.latMS) != 1 || o.latMS[0] != 30 {
		t.Errorf("timedOutcome = attempted %d failed %d latencies %v, want 2, 1, [30]", o.attempted, o.failed, o.latMS)
	}
	res := &result{}
	res.add(&outcome{attempted: 5})
	if !res.Correct {
		t.Error("a run with no failures and no wrong answers is incorrect")
	}
	res.add(o)
	if res.Correct || res.Attempted != 7 || res.Failed != 1 {
		t.Errorf("after a failed request: correct=%v attempted=%d failed=%d, want false, 7, 1",
			res.Correct, res.Attempted, res.Failed)
	}
	wrong := &result{}
	wrong.add(&outcome{attempted: 3, wrong: 1})
	if wrong.Correct || wrong.Failed != 1 {
		t.Errorf("after a wrong answer: correct=%v failed=%d, want false, 1", wrong.Correct, wrong.Failed)
	}
}

// TestReferencePathCatchesWorseAnswer gives dp_cold's oracle an answer
// that re-propagates to exactly its reported mean and sigma but is not
// the engine's answer (one buffer dropped): the re-propagation check
// passes it, and the serial hull-off reference run rejects it.
func TestReferencePathCatchesWorseAnswer(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Sinks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net := dpNet{class: "wid", algo: "wid", tree: tree, lib: vabuf.DefaultLibrary(), ref: true}
	model, err := buildModel(tree, "wid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := vabuf.Insert(tree, vabuf.Options{Library: net.lib, Model: model,
		PbarL: pbar, PbarT: pbar, SelectQuantile: quantQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) == 0 {
		t.Fatal("test net got no buffers; pick another seed")
	}
	worse := maps.Clone(res.Assignment)
	for id := range worse {
		delete(worse, id)
		break
	}
	model, err = buildModel(tree, "wid")
	if err != nil {
		t.Fatal(err)
	}
	rat, err := yield.Propagate(tree, net.lib, worse, model)
	if err != nil {
		t.Fatal(err)
	}
	op := dpOp{mean: rat.Mean(), sigma: rat.Sigma(model.Space), assign: worse}
	if _, err := checkAnswer(nil, spanRef{}, tree, net.lib, "wid", op.assign, op.mean, op.sigma); err != nil {
		t.Fatalf("the worse answer should be self-consistent: %v", err)
	}
	for _, c := range []struct {
		op        dpOp
		wantWrong int
	}{
		{dpOp{mean: res.Mean, sigma: res.Sigma, assign: res.Assignment}, 0},
		{op, 1},
	} {
		d := &dpCold{nets: []dpNet{net}, ops: []dpOp{c.op}}
		o := &outcome{}
		d.check(o, nil)
		if o.wrong != c.wantWrong {
			t.Errorf("%d buffers: %d wrong answers, want %d (%v)", len(c.op.assign), o.wrong, c.wantWrong, o.mismatches)
		}
	}
}

// TestDPColdRefillsThePool drains dp_cold's model pool early: the run
// must go on to the end of its window on models built with the clock
// stopped, and still answer every operation right.
func TestDPColdRefillsThePool(t *testing.T) {
	inst, err := setupDPCold(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := inst.(*dpCold)
	d.models = d.models[:2]
	o := d.run(nil)
	if o.attempted <= 2 || o.failed != 0 || o.offClockAlloc == 0 || o.elapsed < time.Second {
		t.Errorf("attempted %d failed %d off-clock alloc %d elapsed %v: want more than 2 ops, no failures, off-clock allocation and a full window",
			o.attempted, o.failed, o.offClockAlloc, o.elapsed)
	}
	d.check(o, nil)
	if o.wrong != 0 {
		t.Errorf("%d wrong answers: %v", o.wrong, o.mismatches)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(names), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestCoveredWithin(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 14}, {20, 30}}
	if got := coveredWithin(iv, 2, 25); got != 1+9+5 {
		t.Errorf("covered = %d, want 15", got)
	}
}

func TestPatternKeepsTheMix(t *testing.T) {
	p := pattern(20, []string{"a", "b", "c"}, []int{5, 3, 2})
	got := strings.Join(p, "")
	if strings.Count(got, "a") != 10 || strings.Count(got, "b") != 6 || strings.Count(got, "c") != 4 {
		t.Errorf("pattern %s does not keep the 5:3:2 mix", got)
	}
}
