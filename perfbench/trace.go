package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Trace; Parent is the ID of the span that caused this one (0 for
// an operation's root span). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef identifies an open span; the zero value is "no span", which is
// what a disabled tracer hands out.
type spanRef struct {
	id, parent, trace, start int64
	name                     string
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled tracer: every method is a no-op, so the untraced run pays only
// a nil check per boundary.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span. A zero parent starts a new operation.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.newID()
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return spanRef{id: id, parent: parent.id, trace: trace, start: t.now(), name: name}
}

// end closes a span opened by begin and returns its end time.
func (t *tracer) end(ref spanRef) int64 {
	if t == nil || ref.id == 0 {
		return 0
	}
	end := t.now()
	t.record(span{ID: ref.id, Parent: ref.parent, Trace: ref.trace, Name: ref.name, Start: ref.start, End: end})
	return end
}

// child records a completed child span of parent whose duration was
// reported by the program rather than timed here (the server-side DP
// time of a request). It is placed to end where parent ended, since the
// response is encoded right after the run.
func (t *tracer) child(name string, parent spanRef, parentEnd int64, dur time.Duration) {
	if t == nil || parent.id == 0 {
		return
	}
	start := parentEnd - int64(dur)
	if start < parent.start {
		start = parent.start
	}
	t.record(span{ID: t.newID(), Parent: parent.id, Trace: parent.trace, Name: name, Start: start, End: parentEnd})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name            string
	count           int
	totalMS, selfMS float64
}

// table folds the spans into per-layer self times: a span's self time is
// its duration minus the part of its interval covered by its children.
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalMS += float64(dur) / 1e6
		r.selfMS += float64(dur-covered) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// coveredWithin returns the length of the union of intervals clipped to
// [lo, hi].
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = slices.Clone(iv)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}

// printTable renders the per-layer table.
func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "layer", "spans", "total_ms", "self_ms", "self_mean_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.4f\n", r.name, r.count, r.totalMS, r.selfMS, r.selfMS/float64(r.count))
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
}
