package main

// The untraced run: vuserved processes, the load over loopback HTTP,
// the checks, kill -9 and recovery. It measures the end-to-end metrics.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewupdate/internal/persist"
	"viewupdate/internal/sqlish"
	"viewupdate/internal/wal"
)

// running holds every server the benchmark has started and not yet
// killed, so that an early exit stops them too.
var running struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

func track(p *proc) {
	running.mu.Lock()
	defer running.mu.Unlock()
	if running.procs == nil {
		running.procs = map[*proc]bool{}
	}
	running.procs[p] = true
}

func stop(ps ...*proc) {
	for _, p := range ps {
		if p == nil {
			continue
		}
		p.kill()
		running.mu.Lock()
		delete(running.procs, p)
		running.mu.Unlock()
	}
}

func stopAll() {
	running.mu.Lock()
	ps := make([]*proc, 0, len(running.procs))
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.mu.Unlock()
	stop(ps...)
}

type runEnv struct {
	bin string
	dir string
	w   *workload
}

func (e *runEnv) start(args ...string) *proc {
	p, err := startServer(e.bin, filepath.Join(e.dir, "servers.log"), args...)
	if err != nil {
		fatal(err)
	}
	track(p)
	if err := p.ready(120 * time.Second); err != nil {
		fatal(err)
	}
	return p
}

// A phase records the wall time, host steal and server CPU of one step.
type phase struct {
	name       string
	wall       time.Duration
	steal, cpu int64 // ticks
	t0         time.Time
	steal0     int64
	cpu0       int64
}

func beginPhase(name string, ps ...*proc) *phase {
	return &phase{name: name, t0: time.Now(), steal0: stealTicks(), cpu0: cpuOf(ps...)}
}

func (ph *phase) end(ps ...*proc) *phase {
	ph.wall = time.Since(ph.t0)
	ph.steal = stealTicks() - ph.steal0
	ph.cpu = cpuOf(ps...) - ph.cpu0
	return ph
}

func (ph *phase) String() string {
	return fmt.Sprintf("phase %-8s wall %8.3f s  steal %6d ms  server cpu %7d ms",
		ph.name, ph.wall.Seconds(), ph.steal*1000/ticksPerSecond, ph.cpu*1000/ticksPerSecond)
}

func cpuOf(ps ...*proc) int64 {
	var total int64
	for _, p := range ps {
		if p == nil {
			continue
		}
		t, err := p.cpuTicks()
		if err != nil {
			fatal(err)
		}
		total += t
	}
	return total
}

// An e2eRun is what one untraced run measured.
type e2eRun struct {
	w        *workload
	chk      *checker
	setups   []timed
	recovers []timed
	measured *loadResult
	total    loadResult
	phases   []*phase
	cpuTicks int64
	walBytes int64
	rssKiB   int64
	counters map[string]float64 // server counter growth over the measured phase
	hidden   int
	rounds   []round
}

// A timed value is one measurement with the phase it was taken in.
type timed struct {
	v  float64
	ph *phase
}

// calmest keeps the share of xs (at least minCalm of them) measured
// with the least host steal per second of wall time, widened to every
// measurement as calm as the last one kept, so that on a quiet host all
// steal-free rounds count. Steal is CPU time the hypervisor gave to
// other guests while this one was runnable; on a shared 2-core host it
// ranges from none to half the run, and latency and CPU per operation
// follow it. Every round does the same work, so a slower program is
// slower in every round, calm or not.
func calmest[T any](xs []T, phaseOf func(T) *phase, share float64) []T {
	rate := func(x T) float64 {
		ph := phaseOf(x)
		return float64(ph.steal) / max(ph.wall.Seconds(), 1e-9)
	}
	s := append([]T(nil), xs...)
	sort.SliceStable(s, func(a, b int) bool { return rate(s[a]) < rate(s[b]) })
	n := max(min(minCalm, len(s)), int(math.Round(share*float64(len(s)))))
	for n < len(s) && rate(s[n]) <= rate(s[n-1]) {
		n++
	}
	return s[:n]
}

// minCalm keeps enough rounds on the workloads with few of them
// (sp-large makes 15) for a median of a few dozen samples.
const minCalm = 5

func timedPhase(t timed) *phase { return t.ph }

func roundPhase(r round) *phase { return r.phase }

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

type round struct {
	phase *phase
	load  *loadResult
}

// roundOf returns slice i of n of every client's measured stream.
// Streams are whole cycles of ops, so the slices are too when n
// divides the cycle count.
func roundOf(clients []clientOps, i, n int) []clientOps {
	out := make([]clientOps, len(clients))
	for j, c := range clients {
		m := len(c.measured)
		out[j] = clientOps{follower: c.follower, measured: c.measured[i*m/n : (i+1)*m/n]}
	}
	return out
}

// preload builds the base through the program's entry points: the
// sqlish session executes the generated script, and persist.Create
// writes it as a fresh store.
func preload(script, dir string) error {
	s := sqlish.NewSession()
	if _, err := s.ExecScript(script); err != nil {
		return fmt.Errorf("preload script: %w", err)
	}
	st, err := persist.Create(dir, s.DB(), persist.Options{Sync: wal.SyncOnCommit})
	if err != nil {
		return err
	}
	return st.Close()
}

// outsideRows is how many base EMP rows the models hold outside the
// view.
func outsideRows(in *inputs) int { return len(in.base.rel("EMP")) - len(in.view.rows) }

// untraced runs the workload against vuserved processes, measuring
// set-up and recovery the given number of times; the first set-up's
// server is checked against the models and discarded, so the measured
// server's view cache holds only what the workload itself reads.
func (e *runEnv) untraced(in *inputs, setups, recoveries int) *e2eRun {
	w := e.w
	r := &e2eRun{w: w, chk: newChecker(w, in)}
	outside := outsideRows(in)
	if err := os.RemoveAll(e.dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fatal(err)
	}
	ddl := filepath.Join(e.dir, "init.sql")
	if err := os.WriteFile(ddl, []byte(in.ddl), 0o644); err != nil {
		fatal(err)
	}
	hc := newHTTPClient()
	var prim, fol *proc
	var data string
	for i := 0; i < setups; i++ {
		data = filepath.Join(e.dir, fmt.Sprintf("data%d", i))
		ph := beginPhase("setup")
		t0 := time.Now()
		if err := preload(in.preload, data); err != nil {
			fatal(err)
		}
		prim = e.start("-data", data, "-init", ddl, "-sync", "commit")
		if w.follower {
			fol = e.start("-follow", prim.url, "-init", ddl)
		}
		d := time.Since(t0).Seconds()
		r.setups = append(r.setups, timed{d, ph.end(prim, fol)})
		r.phases = append(r.phases, ph)
		if i == 0 {
			e.checkServers(hc, prim, fol, r.chk, "after set-up")
		}
		if i < setups-1 {
			stop(prim, fol)
			if err := os.RemoveAll(data); err != nil {
				fatal(err)
			}
		}
	}

	l := &loader{hc: hc, primary: prim.url, chk: r.chk}
	if fol != nil {
		l.follower = fol.url
	}
	ph := beginPhase("warm-up", prim, fol)
	r.total.merge(l.run(in.clients, false))
	r.phases = append(r.phases, ph.end(prim, fol))

	walPath := filepath.Join(data, persist.WALFile)
	c0 := scrape(hc, prim, fol)
	wal0 := fileSize(walPath)
	ph = beginPhase("measured", prim, fol)
	r.measured = &loadResult{}
	rounds := max(1, in.cycles/w.roundCycles)
	for i := 0; i < rounds; i++ {
		rp := beginPhase(fmt.Sprintf("round%d", i), prim, fol)
		res := l.run(roundOf(in.clients, i, rounds), true)
		rp.end(prim, fol)
		r.rounds = append(r.rounds, round{phase: rp, load: res})
		r.measured.merge(res)
	}
	r.phases = append(r.phases, ph.end(prim, fol))
	r.cpuTicks = ph.cpu
	r.walBytes = fileSize(walPath) - wal0
	c1 := scrape(hc, prim, fol)
	r.counters = map[string]float64{}
	for k, v := range c1 {
		r.counters[k] = v - c0[k]
	}
	r.total.merge(r.measured)

	ph = beginPhase("check", prim, fol)
	e.checkServers(hc, prim, fol, r.chk, "after the measured phase")
	r.hidden = hiddenRows(r.chk, outside)
	rss, err := prim.peakRSSKiB()
	if err != nil {
		fatal(err)
	}
	r.rssKiB = rss
	r.phases = append(r.phases, ph.end(prim, fol))
	stop(fol)

	for i := 0; i < recoveries; i++ {
		stop(prim)
		ph := beginPhase("recover")
		t0 := time.Now()
		prim = e.start("-data", data, "-init", ddl, "-sync", "commit")
		d := time.Since(t0).Seconds()
		r.recovers = append(r.recovers, timed{d, ph.end(prim)})
		r.phases = append(r.phases, ph)
	}
	checkState(hc, prim.url, r.chk, "after kill -9 and restart")
	stop(prim)
	if err := os.RemoveAll(e.dir); err != nil {
		fatal(err)
	}
	return r
}

// checkServers checks a primary against the models and, where there is
// a follower, waits until it serves the primary's view and checks that.
func (e *runEnv) checkServers(hc *http.Client, prim, fol *proc, c *checker, when string) {
	checkState(hc, prim.url, c, when)
	if fol == nil {
		return
	}
	if err := awaitFollower(hc, prim.url, fol.url, e.w.view, 30*time.Second); err != nil {
		c.fail("%s: follower: %v", when, err)
	}
}

// scrape sums the servers' own counters: the obs counters of /metricsz
// and the Go runtime's allocation total from /metrics.
func scrape(hc *http.Client, ps ...*proc) map[string]float64 {
	out := map[string]float64{}
	for _, p := range ps {
		if p == nil {
			continue
		}
		resp, err := hc.Get(p.url + "/metricsz")
		if err != nil {
			fatal(err)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			fatal(fmt.Errorf("decoding %s/metricsz: %w", p.url, err))
		}
		for k, v := range snap.Counters {
			out[k] += float64(v)
		}
		resp, err = hc.Get(p.url + "/metrics")
		if err != nil {
			fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "go_memstats_alloc_bytes_total "); ok {
				v, _ := strconv.ParseFloat(rest, 64)
				out["alloc_bytes"] += v
			}
		}
		resp.Body.Close()
	}
	return out
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// latencyLine prints a median and, with the sample count, the p99 —
// noting when fewer than ten samples lie beyond it.
func latencyLine(name string, xs []float64) string {
	s := fmt.Sprintf("%-7s latency p50 %8.3f ms  p99 %8.3f ms  (n=%d)", name, median(xs), quantile(xs, 0.99), len(xs))
	if len(xs) < 1000 {
		s += "  [p99 has fewer than 10 samples beyond it]"
	}
	return s
}

// endToEnd prints the run's figures and returns its result with the
// end-to-end metrics.
func (r *e2eRun) endToEnd() *result {
	for _, ph := range r.phases {
		fmt.Println(ph)
	}
	var rates []float64
	for _, x := range r.rounds {
		rates = append(rates, float64(x.phase.steal)*1000/ticksPerSecond/x.phase.wall.Seconds())
	}
	kept := calmest(r.rounds, roundPhase, 0.2)
	last := kept[len(kept)-1].phase
	fmt.Printf("rounds %d, kept the %d calmest (steal up to %.0f ms/s; median over all rounds %.0f ms/s)\n",
		len(r.rounds), len(kept), float64(last.steal)*1000/ticksPerSecond/last.wall.Seconds(), median(rates))
	up, rd := ms(r.measured.updates), ms(r.measured.reads)
	fmt.Println(latencyLine("update", up))
	fmt.Println(latencyLine("read", rd))
	// The end-to-end latency and CPU figures come from the calmest fifth
	// of the rounds, pooled.
	var calmUp, calmRd []float64
	var calmCPU, calmOps int64
	for _, x := range kept {
		calmUp = append(calmUp, ms(x.load.updates)...)
		calmRd = append(calmRd, ms(x.load.reads)...)
		calmCPU += x.phase.cpu
		calmOps += int64(len(x.load.updates) + len(x.load.reads))
	}
	updateP50, readP50 := median(calmUp), median(calmRd)
	cpuUS := float64(calmCPU) * 1e6 / ticksPerSecond / float64(max(calmOps, 1))
	setup := median(values(calmest(r.setups, timedPhase, 0.5)))
	recover := median(values(calmest(r.recovers, timedPhase, 1.0/3)))
	ops := len(up) + len(rd)
	walPer := float64(r.walBytes) / float64(max(len(up), 1))
	fmt.Printf("setup_s runs %v  recover_s runs %v\n", fmtList(values(r.setups)), fmtList(values(r.recovers)))
	fmt.Printf("calmest rounds (%d updates, %d reads): update p50 %.3f ms  read p50 %.3f ms  server cpu %.1f µs/op\n",
		len(calmUp), len(calmRd), updateP50, readP50, cpuUS)
	fmt.Printf("measured ops %d (%d updates, %d reads)  server cpu %.1f µs/op  wal %.1f B/update  hidden base rows %d\n",
		ops, len(up), len(rd), float64(r.cpuTicks)*1e6/ticksPerSecond/float64(max(ops, 1)), walPer, r.hidden)
	classes := make([]string, 0, len(r.chk.classes))
	for c, n := range r.chk.classes {
		classes = append(classes, fmt.Sprintf("%s×%d", c, n))
	}
	sort.Strings(classes)
	fmt.Printf("translation classes: %s\n", strings.Join(classes, " "))
	fmt.Printf("attempted %d failed %d\n", r.total.attempted, r.total.failed)
	for _, f := range r.total.failures {
		fmt.Println("failure:", f)
	}
	correct := r.chk.ok()
	for _, e := range r.chk.errs {
		fmt.Println("check failed:", e)
	}
	if correct {
		fmt.Println("checks: view, base, restriction, recovery and follower agree with the models")
	}
	fmt.Println("tracing off: no spans recorded")
	return &result{
		Correct: correct, Attempted: r.total.attempted, Failed: r.total.failed,
		Metrics: map[string]metric{
			"setup_s":              {setup, "s"},
			"update_p50_ms":        {updateP50, "ms"},
			"read_p50_ms":          {readP50, "ms"},
			"cpu_us_per_op":        {cpuUS, "us"},
			"recover_s":            {recover, "s"},
			"wal_bytes_per_update": {walPer, "B"},
			"peak_rss_mb":          {float64(r.rssKiB) / 1024, "MiB"},
		},
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
