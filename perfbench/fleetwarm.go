package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"vabuf"
	"vabuf/internal/core"
	"vabuf/internal/router"
	"vabuf/internal/server"
)

// fleet_warm: vabufr (router.New) in front of three in-process vabufd
// with one worker each, all on loopback. An open loop draws from a
// fixed set of small WID requests, more than one backend's result cache
// holds and fewer than the fleet's; the set is warmed during set-up. In
// every latency slice of the window one backend in turn leaves the ring
// for a quarter of the slice and rejoins, both through Router.Reload, so
// each slice sees the same rescue traffic and every key changes owner
// twice per run whichever way the ring splits the keys. The window runs
// on one P (GOMAXPROCS 1), with the generator's connections still at
// nproc: the fleet's requests are many and small, and with more Ps the
// Go runtime wakes an idle P's thread to spin for work at nearly every
// handoff, a CPU cost that grows and shrinks with the host's load.

const (
	fwKeys                 = 300
	fwMinSinks, fwMaxSinks = 8, 24
	// fwRate is the offered rate in requests per second: a quarter of
	// the capacity measured on 2 vCPUs with two Ps (the p50 held up to
	// 3200 req/s and more than doubled at 4000; the backlog grew at
	// 5000). At 2000 req/s one run in five doubled its p90. On the
	// window's one P it keeps that P about 40% busy.
	fwRate     = 800.0
	fwBackends = 3
	// fwProbe is the router's health-probe interval: a rejoining backend
	// takes traffic after two healthy probes.
	fwProbe = 100 * time.Millisecond
	// fwHopKeys and fwHopRounds size the router-hop probe.
	fwHopKeys, fwHopRounds = 40, 5
)

type fleetWarm struct {
	window   time.Duration
	texts    []string
	bodies   [][]byte
	keyOf    []int
	due      []time.Duration
	churn    []membershipChange
	backends []*server.Server
	loops    []*loopServer
	urls     []string
	rt       *router.Router
	rloop    *loopServer
	// rtTransport carries the router's calls to the backends.
	rtTransport *http.Transport
	client      *http.Client
	conns       int
	warm        []answer
	answers     []answer
	timings     []timing
	// Router and per-backend /metrics before and after the window.
	rBefore, rAfter metricsDoc
	bBefore, bAfter []metricsDoc
}

func setupFleetWarm(seed int64, window time.Duration) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fleetWarm{window: window, conns: runtime.GOMAXPROCS(0)}
	for _, n := range stratifiedSizes(rng, fwKeys, fwMinSinks, fwMaxSinks) {
		tree, err := randomNet(rng, n)
		if err != nil {
			return nil, err
		}
		text, err := treeText(tree)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.InsertRequest{Tree: text, Algo: "wid", IncludeAssignment: true})
		if err != nil {
			return nil, err
		}
		f.texts = append(f.texts, text)
		f.bodies = append(f.bodies, body)
	}
	n := int(math.Ceil(fwRate * window.Seconds()))
	f.due = evenSchedule(n, fwRate)
	f.keyOf = make([]int, n)
	for i := range f.keyOf {
		f.keyOf[i] = rng.Intn(fwKeys)
	}
	f.churn = churnSchedule(window)
	if err := f.start(); err != nil {
		f.close()
		return nil, err
	}
	// Warm every key through the router, so each lands in its owner's
	// result cache.
	f.warm = make([]answer, fwKeys)
	for k, body := range f.bodies {
		a := &f.warm[k]
		a.status, a.body, a.err = post(f.client, f.rloop.url+"/v1/insert", body)
		if a.err != nil || a.status != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("warming key %d: status %d: %v", k, a.status, a.err)
		}
	}
	return f, nil
}

// membershipChange is one Router.Reload at a fixed point of the window:
// backend out leaves the ring (rejoin false) or comes back (rejoin true).
type membershipChange struct {
	at     time.Duration
	out    int
	rejoin bool
}

// churnSchedule takes one backend out for the second quarter of every
// latency slice, cycling through the backends.
func churnSchedule(window time.Duration) []membershipChange {
	var out []membershipChange
	slice := window / latencySlices
	for k := 0; k < latencySlices; k++ {
		start := time.Duration(k) * slice
		out = append(out,
			membershipChange{at: start + slice/4, out: k % fwBackends},
			membershipChange{at: start + slice/2, out: k % fwBackends, rejoin: true})
	}
	return out
}

// start boots the backends and the router and waits until the router
// sees every backend healthy.
func (f *fleetWarm) start() error {
	for b := 0; b < fwBackends; b++ {
		srv := server.New(server.Config{Workers: 1})
		loop, err := startLoop(srv.Handler())
		if err != nil {
			srv.Close()
			return err
		}
		srv.SetInstanceID(loop.url)
		f.backends = append(f.backends, srv)
		f.loops = append(f.loops, loop)
		f.urls = append(f.urls, loop.url)
	}
	f.rtTransport = http.DefaultTransport.(*http.Transport).Clone()
	rt, err := router.New(router.Config{
		Backends:      f.urls,
		ProbeInterval: fwProbe,
		Client:        &http.Client{Transport: f.rtTransport},
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	f.rt = rt
	if f.rloop, err = startLoop(rt.Handler()); err != nil {
		return err
	}
	f.client = newClient(f.conns)
	return f.awaitHealthy(fwBackends, 10*time.Second)
}

// awaitHealthy polls the router's metrics until want backends are
// healthy.
func (f *fleetWarm) awaitHealthy(want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		doc, err := getMetrics(f.client, f.rloop.url)
		if err != nil {
			return err
		}
		healthy := 0
		for _, b := range backendsOf(doc) {
			if h, _ := b["healthy"].(bool); h {
				healthy++
			}
		}
		if healthy >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router sees %d of %d backends healthy after %v", healthy, want, limit)
		}
		time.Sleep(fwProbe / 2)
	}
}

// backendsOf returns the per-backend objects of a router metrics doc.
func backendsOf(doc metricsDoc) []map[string]any {
	list, _ := doc["backends"].([]any)
	out := make([]map[string]any, 0, len(list))
	for _, b := range list {
		if m, ok := b.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out
}

// sumBackends sums a numeric field over the router's backends.
func sumBackends(doc metricsDoc, field string) float64 {
	total := 0.0
	for _, b := range backendsOf(doc) {
		v, _ := b[field].(float64)
		total += v
	}
	return total
}

func (f *fleetWarm) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.rloop != nil {
		f.rloop.close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.rtTransport != nil {
		f.rtTransport.CloseIdleConnections()
	}
	for i, loop := range f.loops {
		loop.close()
		f.backends[i].Close()
	}
}

// snapshot reads the router's and every backend's metrics.
func (f *fleetWarm) snapshot() (metricsDoc, []metricsDoc) {
	r, err := getMetrics(f.client, f.rloop.url)
	if err != nil {
		fmt.Println("perfbench:", err)
	}
	bs := make([]metricsDoc, len(f.urls))
	for i, u := range f.urls {
		if bs[i], err = getMetrics(f.client, u); err != nil {
			fmt.Println("perfbench:", err)
		}
	}
	return r, bs
}

func (f *fleetWarm) run(tr *tracer) *outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f.rBefore, f.bBefore = f.snapshot()
	f.answers = make([]answer, len(f.keyOf))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for _, c := range f.churn {
			time.Sleep(c.at - time.Since(start))
			members := f.urls
			if !c.rejoin {
				members = append(append([]string(nil), f.urls[:c.out]...), f.urls[c.out+1:]...)
			}
			if err := f.rt.Reload(members); err != nil {
				fmt.Println("perfbench: changing the ring:", err)
			}
		}
	}()
	f.timings = openLoop(f.due, f.conns, func(i int) {
		op := tr.begin("op", spanRef{})
		hs := tr.begin("http", op)
		t0 := time.Now()
		status, body, err := post(f.client, f.rloop.url+"/v1/insert", f.bodies[f.keyOf[i]])
		a := &f.answers[i]
		a.status, a.body, a.err, a.httpMS = status, body, err, ms(time.Since(t0))
		tr.end(hs)
		tr.end(op)
	})
	wg.Wait()
	f.rAfter, f.bAfter = f.snapshot()
	return timedOutcome(f.timings, func(i int) bool {
		return f.answers[i].err == nil && f.answers[i].status == http.StatusOK
	})
}

// check answers every key once on a fresh single vabufd, runs the
// re-propagation oracle on that answer, and requires every fleet answer
// for the key (warm-up and window) to be byte-identical to it.
func (f *fleetWarm) check(o *outcome, tr *tracer) {
	var hop float64
	if tr != nil {
		hop = f.hopProbe(tr)
	}
	single := server.New(server.Config{Workers: f.conns})
	loop, err := startLoop(single.Handler())
	if err != nil {
		o.noteWrong("starting the reference server: %v", err)
		single.Close()
		return
	}
	defer func() {
		f.client.CloseIdleConnections()
		loop.close()
		single.Close()
	}()
	ref := make([][]byte, fwKeys)
	var forms []ratForm
	var stats []core.Stats
	var dpMS []float64
	for k := range f.bodies {
		status, body, err := post(f.client, loop.url+"/v1/insert", f.bodies[k])
		if err != nil || status != http.StatusOK {
			o.noteWrong("key %d: reference server answered %d: %v", k, status, err)
			continue
		}
		root := tr.begin("oracle", spanRef{})
		rs := tr.begin("rctree.Read", root)
		tree, err := vabuf.ReadTree(strings.NewReader(f.texts[k]))
		tr.end(rs)
		if err != nil {
			tr.end(root)
			o.noteWrong("key %d: reading its own tree: %v", k, err)
			continue
		}
		_, rf, err := checkInsertBody(tr, root, tree, "wid", body)
		tr.end(root)
		if err != nil {
			o.noteWrong("key %d: %v", k, err)
			continue
		}
		ref[k] = body
		forms = append(forms, rf)
		var warm server.InsertResult
		if err := json.Unmarshal(f.warm[k].body, &warm); err == nil {
			stats = append(stats, coreStats(warm.Stats))
			dpMS = append(dpMS, warm.ElapsedMS)
		}
		if err := sameAnswer(f.warm[k].body, body); err != nil {
			o.noteWrong("key %d: warm-up answer differs from single node: %v", k, err)
		}
	}
	for i, a := range f.answers {
		k := f.keyOf[i]
		if a.err != nil || a.status != http.StatusOK || ref[k] == nil {
			continue
		}
		if err := sameAnswer(a.body, ref[k]); err != nil {
			o.noteWrong("request %d (key %d): fleet answer differs from single node: %v", i, k, err)
		}
	}
	if tr == nil {
		return
	}
	l := o.layers
	coreLayers(l, stats)
	l["core.insert_ms.wid"] = median(dpMS)
	l["server.dp_ms.fresh"] = median(dpMS)
	l["yield.propagate_ms"] = median(spanDurationsMS(tr, "yield.Propagate"))
	l["rctree.read_ms_per_op"] = mean(spanDurationsMS(tr, "rctree.Read"))
	var lat []float64
	for _, t := range f.timings {
		lat = append(lat, ms(t.latency()))
	}
	// Every window request repeats a warmed key.
	l["server.repeat_p50_ms"] = median(lat)
	sum := func(path ...string) float64 {
		total := 0.0
		for b := range f.urls {
			total += delta(f.bBefore[b], f.bAfter[b], path...)
		}
		return total
	}
	rate := func(section string) float64 {
		hits := sum("caches", section, "hits")
		return ratio(hits, hits+sum("caches", section, "misses"))
	}
	l["server.result_hit_rate"] = rate("result")
	l["server.subtree_hit_rate"] = rate("subtree")
	l["server.tree_hit_rate"] = rate("tree")
	l["server.model_hit_rate"] = rate("model")
	l["server.queue_wait_mean_ms"] = ratio(sum("queue", "classes", "interactive", "wait_ms", "sum_ms"),
		sum("queue", "classes", "interactive", "wait_ms", "count"))
	l["server.rejected"] = sum("queue", "rejected")
	l["router.peer_fills"] = sum("peer_fills", "accepted")

	rb, ra := f.rBefore, f.rAfter
	requests := ra.sum("requests", "/v1/insert") - rb.sum("requests", "/v1/insert")
	failovers := sumBackends(ra, "failovers") - sumBackends(rb, "failovers")
	lookups := delta(rb, ra, "lookups", "hits")
	l["router.hop_ms"] = hop
	l["router.owner_hit_rate"] = ratio(requests-failovers-lookups, requests)
	l["router.amplification"] = ratio(delta(rb, ra, "resilience", "attempts_total"), requests)
	l["router.peer_lookup_hits"] = lookups
	l["router.failovers"] = failovers
	loadgenLayers(l, f.timings)
	l["variation.axpy_in_ns"], l["variation.min_in_ns"], l["variation.sigma_diff_ns"] = timeKernels(forms)
}

// hopProbe times the same warm keys through the router and directly at
// the backend that answered, alternating, and returns the difference of
// the medians: the cost of the router hop on a cache hit.
func (f *fleetWarm) hopProbe(tr *tracer) float64 {
	var via, direct []float64
	for k := 0; k < fwHopKeys; k++ {
		owner := ""
		for r := 0; r < fwHopRounds; r++ {
			root := tr.begin("router.hop", spanRef{})
			sp := tr.begin("http.via_router", root)
			t0 := time.Now()
			resp, err := f.client.Post(f.rloop.url+"/v1/insert", "application/json", bytes.NewReader(f.bodies[k]))
			if err == nil {
				owner = resp.Header.Get("Vabuf-Instance")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				via = append(via, ms(time.Since(t0)))
			}
			tr.end(sp)
			if owner != "" {
				sp = tr.begin("http.direct", root)
				t0 = time.Now()
				if status, _, err := post(f.client, owner+"/v1/insert", f.bodies[k]); err == nil && status == http.StatusOK {
					direct = append(direct, ms(time.Since(t0)))
				}
				tr.end(sp)
			}
			tr.end(root)
		}
	}
	return median(via) - median(direct)
}
