package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"
)

// loopServer is an http.Server on a loopback port, owned by the
// benchmark: close stops it and waits for its Serve goroutine.
type loopServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startLoop(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ls := &loopServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		if err := ls.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("perfbench: serve:", err)
		}
	}()
	return ls, nil
}

// close stops the server. Shutdown waits for connections to go idle, and
// treats a connection that never sent a request as busy for 5 s, so after
// a short grace period the rest are closed outright.
func (ls *loopServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := ls.srv.Shutdown(ctx); err != nil {
		ls.srv.Close()
	}
	<-ls.done
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and returns the status and the answer bytes.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metricsDoc is a decoded GET /metrics document.
type metricsDoc map[string]any

func getMetrics(c *http.Client, base string) (metricsDoc, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding metrics: %w", err)
	}
	return doc, nil
}

// at returns the value at a path of object keys, or nil when absent.
func (d metricsDoc) at(path ...string) any {
	var cur any = map[string]any(d)
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = m[k]
	}
	return cur
}

// num returns the number at a path, or 0 when absent.
func (d metricsDoc) num(path ...string) float64 {
	f, _ := d.at(path...).(float64)
	return f
}

// sum adds up every number directly inside the object at a path (the
// per-status counters of one endpoint, say).
func (d metricsDoc) sum(path ...string) float64 {
	m, _ := d.at(path...).(map[string]any)
	total := 0.0
	for _, v := range m {
		f, _ := v.(float64)
		total += f
	}
	return total
}

// delta is after − before at a path.
func delta(before, after metricsDoc, path ...string) float64 {
	return after.num(path...) - before.num(path...)
}

// hitRate is the hit share of a cache section's hits/misses deltas.
func hitRate(before, after metricsDoc, path ...string) float64 {
	hits := delta(before, after, append(slices.Clone(path), "hits")...)
	misses := delta(before, after, append(slices.Clone(path), "misses")...)
	return ratio(hits, hits+misses)
}
