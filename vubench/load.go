package main

// The load: one closed-loop goroutine per client over loopback HTTP,
// each applying its acknowledged updates to the shared models and
// checking each read against them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// A checker owns the models and collects correctness failures.
type checker struct {
	mu      sync.Mutex
	w       *workload
	view    *viewModel
	base    *baseModel
	errs    []string
	classes map[string]int
}

func newChecker(w *workload, in *inputs) *checker {
	return &checker{w: w, view: in.view, base: in.base, classes: map[string]int{}}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(format, args...)
}

func (c *checker) failLocked(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs) == 0
}

type updateReply struct {
	OK      bool     `json:"ok"`
	Class   string   `json:"class"`
	Ops     []string `json:"ops"`
	Version uint64   `json:"version"`
}

type rowsReply struct {
	Rows [][]string `json:"rows"`
}

type updateBody struct {
	Values []string          `json:"values,omitempty"`
	Where  map[string]string `json:"where,omitempty"`
	Set    map[string]string `json:"set,omitempty"`
}

// A loadResult is what one phase's clients measured.
type loadResult struct {
	updates, reads    []time.Duration
	attempted, failed int
	failures          []string
}

func (r *loadResult) merge(o *loadResult) {
	r.updates = append(r.updates, o.updates...)
	r.reads = append(r.reads, o.reads...)
	r.attempted += o.attempted
	r.failed += o.failed
	if len(r.failures) < 5 {
		r.failures = append(r.failures, o.failures...)
	}
}

// A loader drives the clients of one workload.
type loader struct {
	hc       *http.Client
	primary  string
	follower string
	chk      *checker
	tr       *tracer // nil in an untraced run
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// run runs every client's stream to its end, concurrently, and merges
// what they measured.
func (l *loader) run(clients []clientOps, measured bool) *loadResult {
	results := make([]*loadResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		ops := c.warm
		if measured {
			ops = c.measured
		}
		base := l.primary
		if c.follower {
			base = l.follower
		}
		wg.Add(1)
		go func(i int, base string, ops []op) {
			defer wg.Done()
			results[i] = l.client(base, ops)
		}(i, base, ops)
	}
	wg.Wait()
	out := &loadResult{}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

func (l *loader) client(base string, ops []op) *loadResult {
	res := &loadResult{}
	w := l.chk.w
	for i := range ops {
		o := &ops[i]
		res.attempted++
		var req *http.Request
		var err error
		if o.kind == "read" {
			req, err = http.NewRequest(http.MethodGet,
				base+"/views/"+w.view+"?"+url.QueryEscape(w.cols[0])+"="+url.QueryEscape(o.key), nil)
		} else {
			body, merr := json.Marshal(updateBody{Values: o.values, Where: o.where, Set: o.set})
			if merr != nil {
				panic(merr) // maps and slices of strings always marshal
			}
			req, err = http.NewRequest(http.MethodPost, base+"/views/"+w.view+"/"+o.kind, bytes.NewReader(body))
		}
		if err != nil {
			res.fail(err.Error())
			continue
		}
		var sp openSpan
		if l.tr != nil {
			sp = l.tr.start("client."+o.kind, 0, l.tr.newRequest())
			req.Header.Set(hdrRequest, strconv.FormatUint(sp.req, 10))
			req.Header.Set(hdrParent, strconv.FormatUint(sp.id, 10))
		}
		t0 := time.Now()
		resp, err := l.hc.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		lat := time.Since(t0)
		if l.tr != nil {
			l.tr.end(sp)
		}
		if err != nil {
			res.fail(err.Error())
			continue
		}
		if resp.StatusCode != http.StatusOK {
			res.fail(fmt.Sprintf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data)))
			continue
		}
		if o.kind == "read" {
			res.reads = append(res.reads, lat)
			l.checkRead(o, data)
		} else {
			res.updates = append(res.updates, lat)
			l.applyUpdate(o, data)
		}
		if w.think > 0 {
			time.Sleep(w.think)
		}
	}
	return res
}

func (r *loadResult) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// applyUpdate feeds an acknowledged update to both models: the request
// to the view model, the reported operations to the base model.
func (l *loader) applyUpdate(o *op, data []byte) {
	c := l.chk
	var rep updateReply
	if err := json.Unmarshal(data, &rep); err != nil || !rep.OK {
		c.fail("%s: bad acknowledgement %s", o.kind, data)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.classes[rep.Class]++
	var err error
	switch o.kind {
	case "insert":
		err = c.view.insert(o.values)
	case "delete":
		err = c.view.delete(o.where)
	case "replace":
		err = c.view.replace(o.where, o.set)
	}
	if err != nil {
		c.failLocked("%s %v: %v", o.kind, o, err)
	}
	for _, text := range rep.Ops {
		if err := c.base.apply(text); err != nil {
			c.failLocked("%s acknowledged %q: %v", o.kind, text, err)
		}
	}
}

// checkRead compares a point read with its expected row: a fixed one
// (with "*" wildcards) or the view model's at the time of the reply.
// Only the reading client touches the keys it reads, so the model is
// exact for them.
func (l *loader) checkRead(o *op, data []byte) {
	c := l.chk
	var rep rowsReply
	if err := json.Unmarshal(data, &rep); err != nil {
		c.fail("read %s: bad reply %s", o.key, data)
		return
	}
	want := o.want
	if want == nil {
		c.mu.Lock()
		r, ok := c.view.lookup(o.key)
		c.mu.Unlock()
		if !ok {
			if len(rep.Rows) != 0 {
				c.fail("read %s: want no row, got %v", o.key, rep.Rows)
			}
			return
		}
		want = r
	}
	if len(rep.Rows) != 1 || !matches(want, rep.Rows[0]) {
		c.fail("read %s: want %v, got %v", o.key, want, rep.Rows)
	}
}

func matches(want row, got []string) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] != "*" && want[i] != got[i] {
			return false
		}
	}
	return true
}

// readView reads every row of a view.
func readView(hc *http.Client, base, view string) ([]row, error) {
	resp, err := hc.Get(base + "/views/" + view)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/views/%s: %d %s", base, view, resp.StatusCode, data)
	}
	var rep rowsReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	out := make([]row, len(rep.Rows))
	for i, r := range rep.Rows {
		out[i] = r
	}
	return out, nil
}

// checkState compares what a primary serves with the models: the view
// with the view model, each base relation (through its identity view)
// with the base model, and the base's restriction to the view's
// selection (or, for a join, the nested-loop join of the base model)
// with the view model again.
func checkState(hc *http.Client, base string, c *checker, phase string) {
	w := c.w
	got, err := readView(hc, base, w.view)
	if err != nil {
		c.fail("%s: %v", phase, err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := sameRows(phase+": view "+w.view+" against the request model", c.view.all(), got); err != nil {
		c.failLocked("%v", err)
	}
	for rel, iv := range w.baseViews {
		rows, err := readView(hc, base, iv)
		if err != nil {
			c.failLocked("%s: %v", phase, err)
			continue
		}
		if err := sameRows(phase+": base "+rel+" against the base model", c.base.all(rel), rows); err != nil {
			c.failLocked("%v", err)
		}
	}
	var derived []row
	if w.levels != nil {
		derived = nestedLoopJoin(c.base, "EMP", w.levels)
	} else {
		derived = c.base.where("EMP", w.selCol, w.selVal)
	}
	if err := sameRows(phase+": base model restricted to the view against the request model", derived, c.view.all()); err != nil {
		c.failLocked("%v", err)
	}
}

// hiddenRows counts base rows the request-level model does not account
// for: EMP rows outside the view beyond those preloaded outside it, the
// residue a key-moving replace leaves under R-4.
func hiddenRows(c *checker, outside int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.base.rel("EMP")) - len(c.view.rows) - outside
}

// awaitFollower waits until the follower serves the same view rows as
// the primary.
func awaitFollower(hc *http.Client, primary, follower, view string, limit time.Duration) error {
	want, err := readView(hc, primary, view)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for {
		got, err := readView(hc, follower, view)
		if err == nil && sameRows("", want, got) == nil {
			return nil
		}
		if time.Since(t0) > limit {
			if err == nil {
				err = sameRows("follower view "+view+" against the primary's", want, got)
			}
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
