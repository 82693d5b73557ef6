package main

// The span recorder of the traced run. Spans are recorded by the
// benchmark's own code around its calls into the program's packages;
// they stay in memory until the run ends and are then written out.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Headers by which a traced client tells the in-process server which
// request and client span a server-side span belongs to.
const (
	hdrRequest = "X-Vubench-Request"
	hdrParent  = "X-Vubench-Parent"
)

type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"request"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id, parent, req uint64
	name            string
	start           time.Time
}

// A tracer records spans and counted values. A nil *tracer is the
// untraced run: the load checks for it and records nothing.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	reqs   atomic.Uint64
	mu     sync.Mutex
	spans  []spanRec
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

func (t *tracer) newRequest() uint64 { return t.reqs.Add(1) }

func (t *tracer) start(name string, parent, req uint64) openSpan {
	return openSpan{id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

func (t *tracer) end(s openSpan) time.Duration {
	now := time.Now()
	rec := spanRec{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
	return now.Sub(s.start)
}

// count records one observation of a counted (not timed) quantity.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// A layerStat summarizes one span name.
type layerStat struct {
	n         int
	p50, self float64 // ns
}

// layerStats computes, per span name, the count, the median duration
// and the median self time: a span's duration minus the part of it that
// its child spans cover.
func (t *tracer) layerStats() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(covered(s, children[s.ID])))
	}
	out := map[string]layerStat{}
	for name, ds := range durs {
		out[name] = layerStat{n: len(ds), p50: median(ds), self: median(selfs[name])}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints the per-layer table: count, p50 and p50 self time.
func printTable(w io.Writer, stats map[string]layerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %8s %14s %14s\n", "span", "count", "p50_ns", "self_p50_ns")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "%-26s %8d %14.0f %14.0f\n", n, s.n, s.p50, s.self)
	}
}
