package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"vabuf"
	"vabuf/internal/core"
	"vabuf/internal/server"
)

// serve_mix: one vabufd (server.New, default Config, Workers = nproc) on
// a loopback listener, driven open-loop at a fixed rate with inline-tree
// requests: fresh inserts, ECO edits of a net sent a few requests
// earlier, exact repeats of a recent body, and small adaptive-MC yield
// requests.

const (
	// smRate is the offered rate in requests per second: a quarter of
	// the capacity measured on 2 vCPUs (the p50 held up to 48 req/s and
	// rose from 64; the backlog grew at 80). At half the capacity the
	// latency spreads over five seeds were 0.20–0.23.
	smRate                 = 12.0
	smFreshMin, smFreshMax = 200, 900
	smYieldMin, smYieldMax = 30, 80
	smMCCap                = 2000
	smMCTol                = 0.02
	// An ECO edits the newest fresh net; a repeat resends the newest
	// insert body sent at least smRepeatGap requests earlier.
	smRepeatGap = 2
)

var (
	smKinds   = []string{"fresh", "eco", "repeat", "yield"}
	smWeights = []int{3, 3, 3, 1}
	// Fresh inserts are mostly WID, some NOM.
	smAlgos      = []string{"wid", "nom"}
	smAlgoWeight = []int{6, 1}
)

// smReq is one pre-built request.
type smReq struct {
	kind, algo, path string
	body             []byte
	// text is the request's tree text (empty for repeats); src is the
	// request a repeat copies.
	text string
	src  int
}

// answer is what a request got back.
type answer struct {
	status int
	body   []byte
	err    error
	httpMS float64
}

type serveMix struct {
	reqs    []smReq
	due     []time.Duration
	srv     *server.Server
	loop    *loopServer
	client  *http.Client
	conns   int
	answers []answer
	timings []timing
	before  metricsDoc
	after   metricsDoc
}

func setupServeMix(seed int64, window time.Duration) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Ceil(smRate * window.Seconds()))
	kinds := pattern(n, smKinds, smWeights)
	counts := make(map[string]int)
	for _, k := range kinds {
		counts[k]++
	}
	freshSizes := stratifiedSizes(rng, counts["fresh"], smFreshMin, smFreshMax)
	freshAlgos := pattern(counts["fresh"], smAlgos, smAlgoWeight)
	yieldSizes := stratifiedSizes(rng, counts["yield"], smYieldMin, smYieldMax)

	// lastFresh is the newest fresh insert net, the base of the next ECO
	// edit; inserts lists every insert request (fresh and ECO) in order.
	var lastFresh *vabuf.Tree
	var lastAlgo string
	var inserts []int
	reqs := make([]smReq, n)
	for i, kind := range kinds {
		r := smReq{kind: kind, path: "/v1/insert"}
		var tree *vabuf.Tree
		var err error
		switch kind {
		case "fresh":
			r.algo, freshAlgos = freshAlgos[0], freshAlgos[1:]
			tree, err = randomNet(rng, freshSizes[0])
			freshSizes = freshSizes[1:]
			lastFresh, lastAlgo = tree, r.algo
		case "eco":
			r.algo = lastAlgo
			tree = ecoEdit(rng, lastFresh)
		case "repeat":
			j := len(inserts) - 1
			for j > 0 && inserts[j] > i-smRepeatGap {
				j--
			}
			r.src = inserts[j]
			r.algo, r.body = reqs[r.src].algo, reqs[r.src].body
		case "yield":
			r.algo, r.path = "wid", "/v1/yield"
			tree, err = randomNet(rng, yieldSizes[0])
			yieldSizes = yieldSizes[1:]
		}
		if err != nil {
			return nil, err
		}
		if tree != nil {
			if r.text, err = treeText(tree); err != nil {
				return nil, err
			}
			ins := server.InsertRequest{Tree: r.text, Algo: r.algo, Parallelism: 1, IncludeAssignment: true}
			if kind == "yield" {
				r.body, err = json.Marshal(server.YieldRequest{InsertRequest: ins,
					MonteCarlo: smMCCap, MCTol: smMCTol, Seed: rng.Int63n(1<<31) + 1})
			} else {
				r.body, err = json.Marshal(ins)
				inserts = append(inserts, i)
			}
			if err != nil {
				return nil, err
			}
		}
		reqs[i] = r
	}
	conns := runtime.GOMAXPROCS(0)
	srv := server.New(server.Config{Workers: conns})
	loop, err := startLoop(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveMix{
		reqs:   reqs,
		due:    evenSchedule(n, smRate),
		srv:    srv,
		loop:   loop,
		client: newClient(conns),
		conns:  conns,
	}, nil
}

// ecoEdit returns a copy of the tree with one sink's RAT or load changed,
// the engineering-change edit the subtree cache exists for.
func ecoEdit(rng *rand.Rand, base *vabuf.Tree) *vabuf.Tree {
	t := base.Clone()
	sinks := t.Sinks()
	s := t.Node(sinks[rng.Intn(len(sinks))])
	if rng.Intn(2) == 0 {
		s.RAT -= 5 + 25*rng.Float64()
	} else {
		s.CapLoad *= 0.8 + 0.4*rng.Float64()
	}
	return t
}

func (s *serveMix) close() {
	s.client.CloseIdleConnections()
	s.loop.close()
	s.srv.Close()
}

func (s *serveMix) run(tr *tracer) *outcome {
	var err error
	if s.before, err = getMetrics(s.client, s.loop.url); err != nil {
		fmt.Println("perfbench:", err)
	}
	s.answers = make([]answer, len(s.reqs))
	s.timings = openLoop(s.due, s.conns, func(i int) {
		r := &s.reqs[i]
		op := tr.begin("op", spanRef{})
		hs := tr.begin("http", op)
		t0 := time.Now()
		status, body, err := post(s.client, s.loop.url+r.path, r.body)
		a := &s.answers[i]
		a.status, a.body, a.err, a.httpMS = status, body, err, ms(time.Since(t0))
		end := tr.end(hs)
		if tr != nil && err == nil && status == http.StatusOK && r.kind != "repeat" {
			tr.child("server.dp", hs, end, time.Duration(serverElapsedMS(r.kind, body)*float64(time.Millisecond)))
		}
		tr.end(op)
	})
	if s.after, err = getMetrics(s.client, s.loop.url); err != nil {
		fmt.Println("perfbench:", err)
	}
	return timedOutcome(s.timings, func(i int) bool {
		return s.answers[i].err == nil && s.answers[i].status == http.StatusOK
	})
}

// timedOutcome folds open-loop timings into an outcome; ok reports
// whether request i was answered 200. Only answered requests carry a
// latency.
func timedOutcome(ts []timing, ok func(i int) bool) *outcome {
	o := &outcome{attempted: len(ts)}
	var last time.Duration
	for i, t := range ts {
		last = max(last, t.done)
		if !ok(i) {
			o.failed++
			continue
		}
		o.latMS = append(o.latMS, ms(t.latency()))
		o.at = append(o.at, t.due)
	}
	o.elapsed = last
	return o
}

// serverElapsedMS is the DP time the service reports in an answer.
func serverElapsedMS(kind string, body []byte) float64 {
	var a struct {
		ElapsedMS float64 `json:"elapsed_ms"`
		Insert    struct {
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"insert"`
	}
	if json.Unmarshal(body, &a) != nil {
		return 0
	}
	if kind == "yield" {
		return a.Insert.ElapsedMS
	}
	return a.ElapsedMS
}

func (s *serveMix) check(o *outcome, tr *tracer) {
	var (
		forms                       []ratForm
		stats                       []core.Stats
		dpFresh, dpECO, overhead    []float64
		insertWID, insertNOM        []float64
		ecoHits, ecoLookups         float64
		mcSamples                   []float64
		latRepeat, latECO, latYield []float64
	)
	for i := range s.reqs {
		r, a := &s.reqs[i], &s.answers[i]
		switch r.kind {
		case "repeat":
			latRepeat = append(latRepeat, ms(s.timings[i].latency()))
		case "eco":
			latECO = append(latECO, ms(s.timings[i].latency()))
		case "yield":
			latYield = append(latYield, ms(s.timings[i].latency()))
		}
		if a.err != nil || a.status != http.StatusOK {
			continue
		}
		if r.kind == "repeat" {
			if src := &s.answers[r.src]; src.err == nil && src.status == http.StatusOK {
				if err := sameAnswer(a.body, src.body); err != nil {
					o.noteWrong("request %d (repeat of %d): %v", i, r.src, err)
				}
			}
			continue
		}
		root := tr.begin("oracle", spanRef{})
		rs := tr.begin("rctree.Read", root)
		tree, err := vabuf.ReadTree(strings.NewReader(r.text))
		tr.end(rs)
		if err != nil {
			tr.end(root)
			o.noteWrong("request %d: reading its own tree: %v", i, err)
			continue
		}
		var ins server.InsertResult
		var rf ratForm
		if r.kind == "yield" {
			var y server.YieldResult
			y, rf, err = checkYieldBody(tr, root, tree, r.algo, smMCCap, a.body)
			ins = y.Insert
			if y.MonteCarlo != nil {
				mcSamples = append(mcSamples, float64(y.MonteCarlo.Samples))
			}
		} else {
			ins, rf, err = checkInsertBody(tr, root, tree, r.algo, a.body)
		}
		tr.end(root)
		if err != nil {
			o.noteWrong("request %d (%s, %d sinks): %v", i, r.kind, tree.NumSinks(), err)
			continue
		}
		forms = append(forms, rf)
		stats = append(stats, coreStats(ins.Stats))
		overhead = append(overhead, a.httpMS-ins.ElapsedMS)
		switch r.kind {
		case "fresh":
			dpFresh = append(dpFresh, ins.ElapsedMS)
			if r.algo == "wid" {
				insertWID = append(insertWID, ins.ElapsedMS)
			} else {
				insertNOM = append(insertNOM, ins.ElapsedMS)
			}
		case "eco":
			dpECO = append(dpECO, ins.ElapsedMS)
			ecoHits += float64(ins.Stats.SubtreeHits)
			ecoLookups += float64(ins.Stats.SubtreeHits + ins.Stats.SubtreeMisses)
		}
	}
	if tr == nil {
		return
	}
	l := o.layers
	coreLayers(l, stats)
	l["core.insert_ms.wid"] = median(insertWID)
	l["core.insert_ms.nom"] = median(insertNOM)
	l["yield.propagate_ms"] = median(spanDurationsMS(tr, "yield.Propagate"))
	l["yield.req_p50_ms"] = median(latYield)
	l["yield.mc_samples_per_req"] = mean(mcSamples)
	l["rctree.read_ms_per_op"] = mean(spanDurationsMS(tr, "rctree.Read"))
	b, a := s.before, s.after
	l["server.result_hit_rate"] = hitRate(b, a, "caches", "result")
	l["server.subtree_hit_rate"] = hitRate(b, a, "caches", "subtree")
	l["server.eco_subtree_hit_rate"] = ratio(ecoHits, ecoLookups)
	l["server.tree_hit_rate"] = hitRate(b, a, "caches", "tree")
	l["server.model_hit_rate"] = hitRate(b, a, "caches", "model")
	waitPath := []string{"queue", "classes", "interactive", "wait_ms"}
	l["server.queue_wait_mean_ms"] = ratio(delta(b, a, append(waitPath, "sum_ms")...), delta(b, a, append(waitPath, "count")...))
	l["server.rejected"] = delta(b, a, "queue", "rejected")
	l["server.dp_ms.fresh"] = median(dpFresh)
	l["server.dp_ms.eco"] = median(dpECO)
	l["server.overhead_ms"] = median(overhead)
	l["server.repeat_p50_ms"] = median(latRepeat)
	l["server.eco_p50_ms"] = median(latECO)
	loadgenLayers(l, s.timings)
	l["variation.axpy_in_ns"], l["variation.min_in_ns"], l["variation.sigma_diff_ns"] = timeKernels(forms)
}

// loadgenLayers reports how late the generator ran and the rate it
// achieved: these check that an open-loop run is valid.
func loadgenLayers(l map[string]float64, ts []timing) {
	lags := make([]float64, len(ts))
	var last time.Duration
	for i, t := range ts {
		lags[i] = ms(t.lag())
		last = max(last, t.dispatched)
	}
	l["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	l["loadgen.achieved_qps"] = ratio(float64(len(ts)-1), last.Seconds())
}

// coreStats converts an answer's counters back to the engine's type.
func coreStats(d server.StatsDTO) core.Stats {
	return core.Stats{
		Generated:       d.Generated,
		Pruned:          d.Pruned,
		PeakList:        d.PeakList,
		Merges:          d.Merges,
		Nodes:           d.Nodes,
		Workers:         d.Workers,
		ArenaCandidates: d.ArenaCandidates,
		ArenaTerms:      d.ArenaTerms,
		ArenaBytes:      d.ArenaBytes,
		ArenaUsedBytes:  d.ArenaUsedBytes,
		SubtreeHits:     d.SubtreeHits,
		SubtreeMisses:   d.SubtreeMisses,
		SubtreeStores:   d.SubtreeStores,
		HullSites:       d.HullSites,
		HullSkipped:     d.HullSkipped,
		HullFallbacks:   d.HullFallbacks,
		HullPeak:        d.HullPeak,
	}
}
