package main

// The traced run: the same workload, served in process so that the
// benchmark can time its calls into each package's public functions.
// Updates alternate between the program's HTTP handler and the engine's
// Translate and Commit called directly; before each update the
// translation is repeated, side-effect free, through core, storage and
// view to time those layers on the same request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/schema"
	"viewupdate/internal/server"
	"viewupdate/internal/sqlish"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/wal"
)

// errCapture stops Engine.Translate right after it hands the request
// builder the engine's view and snapshot.
var errCapture = errors.New("captured")

// tracedWAL times the primary's WAL media.
type tracedWAL struct {
	f     wal.File
	tr    *tracer
	bytes *atomic.Int64
	syncs *atomic.Int64
}

func (t *tracedWAL) Write(p []byte) (int, error) {
	sp := t.tr.start("wal.write", 0, 0)
	n, err := t.f.Write(p)
	t.tr.end(sp)
	t.bytes.Add(int64(n))
	return n, err
}

func (t *tracedWAL) Sync() error {
	sp := t.tr.start("wal.sync", 0, 0)
	err := t.f.Sync()
	t.tr.end(sp)
	t.syncs.Add(1)
	return err
}

// Truncate forwards the log's repair capability to the media.
func (t *tracedWAL) Truncate(size int64) error {
	if tr, ok := t.f.(interface{ Truncate(int64) error }); ok {
		return tr.Truncate(size)
	}
	return fmt.Errorf("wal media %T cannot truncate", t.f)
}

// A tracedHandler wraps one engine's HTTP handler.
type tracedHandler struct {
	eng     *server.Engine
	inner   http.Handler
	tr      *tracer
	pol     core.Policy
	updates atomic.Uint64
}

func (h *tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	rest, isView := strings.CutPrefix(r.URL.Path, "/views/")
	if req == 0 || !isView {
		h.inner.ServeHTTP(rw, r)
		return
	}
	name, opName, isUpdate := strings.Cut(rest, "/")
	if !isUpdate {
		sp := h.tr.start("server.read_view", parent, req)
		_, _, err := h.eng.ReadView(name)
		h.tr.end(sp)
		if err != nil {
			writeJSON(rw, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		sp = h.tr.start("server.handle_read", parent, req)
		h.inner.ServeHTTP(rw, r)
		h.tr.end(sp)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var b updateBody
	if err := json.Unmarshal(body, &b); err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	build := requestBuilder(opName, b)
	h.probe(parent, req, name, build)
	if h.updates.Add(1)%2 == 0 {
		r.Body = io.NopCloser(bytes.NewReader(body))
		sp := h.tr.start("server.handle_update", parent, req)
		h.inner.ServeHTTP(rw, r)
		h.tr.end(sp)
		return
	}
	h.engineUpdate(r.Context(), rw, parent, req, name, build)
}

// engineUpdate serves an update through Engine.Translate and
// Engine.Commit and answers as the handler would.
func (h *tracedHandler) engineUpdate(ctx context.Context, rw http.ResponseWriter, parent, req uint64, name string, build func(view.View, storage.Source) (core.Request, error)) {
	sp := h.tr.start("server.translate", parent, req)
	cand, _, _, base, err := h.eng.Translate(ctx, name, nil, build)
	h.tr.end(sp)
	if err != nil {
		writeJSON(rw, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	sp = h.tr.start("server.commit", parent, req)
	version, err := h.eng.Commit(ctx, cand.Translation, false, base)
	h.tr.end(sp)
	if err != nil {
		writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	ops := cand.Translation.Ops()
	texts := make([]string, len(ops))
	for i, o := range ops {
		texts[i] = o.String()
	}
	writeJSON(rw, http.StatusOK, updateReply{OK: true, Class: cand.Class, Ops: texts, Version: version})
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v) // a client gone away is its own failure
}

// snapshotView returns the engine's view object and its published
// snapshot, by way of the request builder Engine.Translate calls.
func (h *tracedHandler) snapshotView(name string) (view.View, *storage.Database, error) {
	var v view.View
	var db *storage.Database
	_, _, _, _, err := h.eng.Translate(context.Background(), name, nil, func(cv view.View, src storage.Source) (core.Request, error) {
		v = cv
		db, _ = src.(*storage.Database)
		return core.Request{}, errCapture
	})
	if !errors.Is(err, errCapture) || db == nil {
		return nil, nil, fmt.Errorf("capturing view %s: %v", name, err)
	}
	return v, db, nil
}

// probe repeats the request's translation against the published
// snapshot without applying it, timing each layer: core (translate,
// verify, candidates), storage (the first write to a shared clone) and
// view (the view delta of the translation).
func (h *tracedHandler) probe(parent, req uint64, name string, build func(view.View, storage.Source) (core.Request, error)) {
	v, snap, err := h.snapshotView(name)
	if err != nil {
		return
	}
	creq, err := build(v, snap)
	if err != nil {
		return
	}
	t := h.tr
	sp := t.start("core.translate", parent, req)
	cand, err := core.NewTranslator(v, h.pol).Translate(snap, creq)
	t.end(sp)
	if err != nil {
		return
	}
	if before, version, err := h.eng.ReadView(name); err == nil {
		if _, now := h.eng.Snapshot(); now == version {
			sp = t.start("core.verify", parent, req)
			_, _ = core.NewVerifierWithBefore(snap, v, creq, before).SideEffects(cand.Translation) // only timed
			t.end(sp)
		}
	}
	if cands, err := core.Enumerate(snap, v, creq); err == nil {
		t.count("core.candidates_per_request", float64(len(cands)))
	}

	sp = t.start("storage.clone_shared", parent, req)
	clone := snap.CloneShared()
	t.end(sp)
	sp = t.start("storage.first_apply", parent, req)
	err = clone.Apply(cand.Translation)
	t.end(sp)
	if err != nil {
		return
	}
	var removed, added []tuple.T
	rels := map[string]bool{}
	for _, o := range cand.Translation.Ops() {
		rels[o.RelationName()] = true
		switch o.Kind {
		case update.Insert:
			added = append(added, o.Tuple)
		case update.Delete:
			removed = append(removed, o.Tuple)
		default:
			removed, added = append(removed, o.Old), append(added, o.New)
		}
	}
	copied := 0
	for rel := range rels {
		copied += snap.Len(rel)
	}
	t.count("storage.rows_copied_per_row_changed", float64(copied)/float64(max(cand.Translation.Len(), 1)))

	sp = t.start("view.delta", parent, req)
	rows := 0
	switch vv := v.(type) {
	case *view.Join:
		rem, add := vv.DeltaForChange(snap, clone, removed, added)
		rows = rem.Len() + add.Len()
	case *view.SP:
		for _, b := range append(append([]tuple.T(nil), removed...), added...) {
			if _, ok := vv.RowFor(b); ok {
				rows++
			}
		}
	}
	t.end(sp)
	t.count("view.delta_rows", float64(rows))
}

// requestBuilder turns a wire update body into a core request against
// whatever state it is handed, resolving the target row by key.
func requestBuilder(kind string, b updateBody) func(view.View, storage.Source) (core.Request, error) {
	return func(v view.View, src storage.Source) (core.Request, error) {
		rel := v.Schema()
		if kind == "insert" {
			t, err := wireTuple(rel, b.Values)
			if err != nil {
				return core.Request{}, err
			}
			return core.InsertRequest(t), nil
		}
		probe, err := keyProbe(rel, b.Where)
		if err != nil {
			return core.Request{}, err
		}
		lv, ok := v.(interface {
			Lookup(storage.Source, tuple.T) (tuple.T, bool)
		})
		if !ok {
			return core.Request{}, fmt.Errorf("view %s has no key lookup", v.Name())
		}
		old, found := lv.Lookup(src, probe)
		if !found {
			return core.Request{}, fmt.Errorf("no row of %s matches %v", v.Name(), b.Where)
		}
		if kind == "delete" {
			return core.DeleteRequest(old), nil
		}
		nu := old
		for attr, s := range b.Set {
			a, ok := rel.Attribute(attr)
			if !ok {
				return core.Request{}, fmt.Errorf("%s has no attribute %s", rel.Name(), attr)
			}
			val, err := wireValue(a, s)
			if err != nil {
				return core.Request{}, err
			}
			if nu, err = nu.With(attr, val); err != nil {
				return core.Request{}, err
			}
		}
		return core.ReplaceRequest(old, nu), nil
	}
}

func wireValue(a schema.Attribute, s string) (value.Value, error) {
	if a.Domain.Kind() == value.Int {
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewInt(i), nil
	}
	return value.NewString(s), nil
}

func wireTuple(rel *schema.Relation, vals []string) (tuple.T, error) {
	attrs := rel.Attributes()
	if len(vals) != len(attrs) {
		return tuple.T{}, fmt.Errorf("%s takes %d values, got %d", rel.Name(), len(attrs), len(vals))
	}
	out := make([]value.Value, len(attrs))
	for i, a := range attrs {
		v, err := wireValue(a, vals[i])
		if err != nil {
			return tuple.T{}, err
		}
		out[i] = v
	}
	return tuple.New(rel, out...)
}

// keyProbe builds a view tuple carrying the key values of where and an
// arbitrary domain value elsewhere: enough for a key lookup.
func keyProbe(rel *schema.Relation, where map[string]string) (tuple.T, error) {
	attrs := rel.Attributes()
	out := make([]value.Value, len(attrs))
	for i, a := range attrs {
		s, ok := where[a.Name]
		if !ok {
			out[i] = a.Domain.At(0)
			continue
		}
		v, err := wireValue(a, s)
		if err != nil {
			return tuple.T{}, err
		}
		out[i] = v
	}
	return tuple.New(rel, out...)
}

func wireRow(t tuple.T) row {
	vals := t.Values()
	out := make(row, len(vals))
	for i, v := range vals {
		switch v.Kind() {
		case value.Int:
			out[i] = strconv.FormatInt(v.Int(), 10)
		case value.String:
			out[i] = v.Str()
		default:
			out[i] = v.String()
		}
	}
	return out
}

// An inProc is one engine served over loopback HTTP from this process.
type inProc struct {
	eng *server.Engine
	h   *tracedHandler
	srv *http.Server
	url string
	wg  sync.WaitGroup
}

func serveInProc(eng *server.Engine, tr *tracer, pol core.Policy) (*inProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &tracedHandler{eng: eng, inner: server.NewHandler(eng), tr: tr, pol: pol}
	p := &inProc{eng: eng, h: h, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return p, nil
}

// close stops the listener, then the engine: Kill for a crash (no
// checkpoint), Close for a drain.
func (p *inProc) close(crash bool) {
	_ = p.srv.Close() // open streams are cut; the engine goes next
	p.wg.Wait()
	if crash {
		p.eng.Kill()
	} else {
		_ = p.eng.Close() // a memory-only follower has nothing to flush
	}
}

// traced runs the workload in process with the span recorder on and
// returns the per-layer metrics. base is the untraced run made just
// before, from the same inputs, for the tracing overhead and the
// servers' own counters.
func (e *runEnv) traced(in *inputs, base *e2eRun, spanPath string) *result {
	w := e.w
	tr := newTracer()
	chk := newChecker(w, in)
	outside := outsideRows(in)
	obs.Enable(obs.NewSink(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err := os.RemoveAll(e.dir); err != nil {
		fatal(err)
	}
	data := filepath.Join(e.dir, "data")
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fatal(err)
	}

	// Set-up, through the same entry points as the untraced run.
	sess := sqlish.NewSession()
	sp := tr.start("sqlish.exec_script", 0, 0)
	if _, err := sess.ExecScript(in.preload); err != nil {
		fatal(err)
	}
	tr.end(sp)
	sp = tr.start("view.materialize", 0, 0)
	sess.View(w.view).Materialize(sess.DB())
	tr.end(sp)
	sp = tr.start("persist.create", 0, 0)
	st, err := persist.Create(data, sess.DB(), persist.Options{Sync: wal.SyncOnCommit})
	if err != nil {
		fatal(err)
	}
	tr.end(sp)
	if err := st.Close(); err != nil {
		fatal(err)
	}
	sess = nil // the engine loads its own copy of the base

	var walBytes, walSyncs atomic.Int64
	wrap := func(f wal.File) wal.File {
		return &tracedWAL{f: f, tr: tr, bytes: &walBytes, syncs: &walSyncs}
	}
	var pol core.Policy = core.PickFirst{}
	if w.prefer != nil {
		pol = core.PreferClasses{Order: w.prefer}
	}
	eng, err := server.NewEngine(server.Config{Dir: data, Sync: wal.SyncOnCommit, WrapWAL: wrap}, in.ddl)
	if err != nil {
		fatal(err)
	}
	prim, err := serveInProc(eng, tr, pol)
	if err != nil {
		fatal(err)
	}
	// Every traced run attaches a follower, so that the replica layer is
	// measured at each workload's base size; only spj-mix reads from it.
	feng, err := server.NewEngine(server.Config{Follow: prim.url}, in.ddl)
	if err != nil {
		fatal(err)
	}
	fol, err := serveInProc(feng, tr, pol)
	if err != nil {
		fatal(err)
	}
	if err := waitReady(fol.url, nil, 60*time.Second); err != nil {
		fatal(err)
	}

	hc := newHTTPClient()
	l := &loader{hc: hc, primary: prim.url, follower: fol.url, chk: chk, tr: tr}
	var total loadResult
	total.merge(l.run(in.clients, false))
	walBytes.Store(0)
	walSyncs.Store(0)
	steal0 := stealTicks()
	t0 := time.Now()
	measured := l.run(in.clients, true)
	wall := time.Since(t0)
	steal := stealTicks() - steal0
	total.merge(measured)

	catchup := tr.start("replica.catchup", 0, 0)
	want := eng.Store().CommittedSeq()
	for feng.Health().Replica.AppliedSeq < want {
		if time.Since(catchup.start) > 60*time.Second {
			chk.fail("follower stuck below seq %d", want)
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	catchupD := tr.end(catchup)
	checkState(hc, prim.url, chk, "traced: after the measured phase")
	if err := awaitFollower(hc, prim.url, fol.url, w.view, 30*time.Second); err != nil {
		chk.fail("traced: follower: %v", err)
	}
	hidden := hiddenRows(chk, outside)

	micro := e.microProbes(tr, prim.h, w, chk)

	fol.close(false)
	prim.close(true)

	// Recovery: persist.Open on a copy of the crashed directory, then
	// the view over the recovered base, checked against the models.
	crashed := filepath.Join(e.dir, "crashed")
	if err := copyDir(data, crashed); err != nil {
		fatal(err)
	}
	snapBytes := fileSize(filepath.Join(crashed, persist.SnapshotFile))
	sp = tr.start("persist.open", 0, 0)
	rst, err := persist.Open(crashed, persist.Options{Sync: wal.SyncOnCommit})
	if err != nil {
		fatal(err)
	}
	openD := tr.end(sp)
	replayed := rst.Report().Replayed
	rsess := sqlish.NewSession()
	if err := rsess.AttachStore(rst); err != nil {
		fatal(err)
	}
	if _, _, err := rsess.ExecScriptSkipExisting(in.ddl); err != nil {
		fatal(err)
	}
	sp = tr.start("view.materialize", 0, 0)
	recovered := rsess.View(w.view).Materialize(rsess.DB())
	tr.end(sp)
	checkRecovered(chk, rsess.DB(), recovered)
	if err := rst.Close(); err != nil {
		fatal(err)
	}
	lagMS := replicaLagMS()
	obs.Disable()

	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		fatal(err)
	}
	if err := tr.writeSpans(spanPath); err != nil {
		fatal(err)
	}
	stats := tr.layerStats()
	fmt.Printf("traced run: %d spans written to %s\n", len(tr.spans), spanPath)
	printTable(os.Stdout, stats)

	up, rd := ms(measured.updates), ms(measured.reads)
	bup, brd := ms(base.measured.updates), ms(base.measured.reads)
	fmt.Printf("tracing overhead: update p50 %.3f ms traced vs %.3f ms untraced (%+.3f ms); read p50 %.3f vs %.3f ms (%+.3f ms); measured wall %.3f s, steal %d ms\n",
		median(up), median(bup), median(up)-median(bup), median(rd), median(brd), median(rd)-median(brd),
		wall.Seconds(), steal*1000/ticksPerSecond)
	fmt.Println("  (the traced run serves in process, repeats each update's translation through core, storage and view, and feeds a follower on every workload)")
	fmt.Printf("traced attempted %d failed %d\n", total.attempted, total.failed)
	for _, f := range total.failures {
		fmt.Println("failure:", f)
	}
	for _, msg := range chk.errs {
		fmt.Println("check failed:", msg)
	}

	p50 := func(name string) float64 { return stats[name].p50 }
	mean := func(name string) float64 {
		xs := tr.counts[name]
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	acked := float64(max(len(measured.updates), 1))
	bc := base.counters
	hits, misses := bc["server.viewcache.hit"], bc["server.viewcache.miss"]
	bops := float64(max(len(base.measured.updates)+len(base.measured.reads), 1))
	m := map[string]metric{
		"server.handle_update_ns":             {p50("server.handle_update"), "ns"},
		"server.handle_read_ns":               {p50("server.handle_read"), "ns"},
		"server.translate_ns":                 {p50("server.translate"), "ns"},
		"server.commit_ns":                    {p50("server.commit"), "ns"},
		"server.read_view_ns":                 {p50("server.read_view"), "ns"},
		"server.wire_ns":                      {p50("server.handle_update") - p50("server.translate") - p50("server.commit"), "ns"},
		"server.commits_per_sync":             {bc["server.commit.committed"] / max(bc["wal.sync"], 1), "ratio"},
		"server.alloc_bytes_per_op":           {bc["alloc_bytes"] / bops, "B"},
		"server.viewcache_hit_ratio":          {hits / max(hits+misses, 1), "ratio"},
		"server.ivm_rebuilds":                 {bc["server.ivm.rebuild"], "count"},
		"core.translate_ns":                   {p50("core.translate"), "ns"},
		"core.verify_ns":                      {p50("core.verify"), "ns"},
		"core.candidates_per_request":         {mean("core.candidates_per_request"), "count"},
		"core.translate_allocs":               {micro.translateAllocs, "allocs"},
		"view.materialize_ns":                 {p50("view.materialize"), "ns"},
		"view.delta_ns":                       {p50("view.delta"), "ns"},
		"view.delta_rows":                     {mean("view.delta_rows"), "count"},
		"storage.clone_shared_ns":             {p50("storage.clone_shared"), "ns"},
		"storage.first_apply_ns":              {p50("storage.first_apply"), "ns"},
		"storage.rows_copied_per_row_changed": {mean("storage.rows_copied_per_row_changed"), "ratio"},
		"storage.hidden_rows":                 {float64(hidden), "count"},
		"relation.clone_ns":                   {p50("relation.clone"), "ns"},
		"relation.insert_ns":                  {p50("relation.insert"), "ns"},
		"tuple.encode_ns":                     {micro.encodeNS, "ns"},
		"tuple.encode_allocs":                 {micro.encodeAllocs, "allocs"},
		"wal.write_ns":                        {p50("wal.write"), "ns"},
		"wal.sync_ns":                         {p50("wal.sync"), "ns"},
		"wal.syncs_per_commit":                {float64(walSyncs.Load()) / acked, "ratio"},
		"wal.bytes_per_commit":                {float64(walBytes.Load()) / acked, "B"},
		"persist.open_s":                      {openD.Seconds(), "s"},
		"persist.replay_records":              {float64(replayed), "count"},
		"persist.snapshot_bytes":              {float64(snapBytes), "B"},
		"persist.create_s":                    {p50("persist.create") / 1e9, "s"},
		"sqlish.exec_script_s":                {p50("sqlish.exec_script") / 1e9, "s"},
		"replica.lag_ms":                      {lagMS, "ms"},
		"replica.catchup_s":                   {catchupD.Seconds(), "s"},
		"host.steal_ms":                       {float64(steal * 1000 / ticksPerSecond), "ms"},
	}
	return &result{Correct: chk.ok() && base.chk.ok(), Attempted: total.attempted, Failed: total.failed, Metrics: m}
}

// replicaLagMS is the median of the follower's commit-visibility lag
// histogram (primary publish to follower apply).
func replicaLagMS() float64 {
	s := obs.Active()
	if s == nil {
		return 0
	}
	return float64(s.Metrics().Histogram("server.replica.lag.ns").Quantile(0.5)) / 1e6
}

type microResult struct {
	translateAllocs        float64
	encodeNS, encodeAllocs float64
}

// microProbes times single-layer calls on the final published state,
// with the engine idle: relation clone and insert at the workload's base
// size, tuple encoding, and the allocations of one core translation.
func (e *runEnv) microProbes(tr *tracer, h *tracedHandler, w *workload, chk *checker) microResult {
	var res microResult
	v, snap, err := h.snapshotView(w.view)
	if err != nil {
		chk.fail("traced: %v", err)
		return res
	}
	ext := snap.Extension("EMP")
	tuples := ext.Tuples()
	key := ext.Relation().Attributes()[0]
	fresh, err := tuples[0].With(key.Name, key.Domain.At(key.Domain.Size()-1))
	if err != nil {
		chk.fail("traced: %v", err)
		return res
	}
	for i := 0; i < 5; i++ {
		sp := tr.start("relation.clone", 0, 0)
		c := ext.Clone()
		tr.end(sp)
		sp = tr.start("relation.insert", 0, 0)
		err := c.Insert(fresh)
		tr.end(sp)
		if err != nil {
			chk.fail("traced: relation insert: %v", err)
		}
	}

	n := min(len(tuples), 2000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, t := range tuples[:n] {
		_ = t.Encode()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.encodeNS = float64(d.Nanoseconds()) / float64(n)
	res.encodeAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	ins, err := tuple.New(v.Schema(), probeValues(v, snap)...)
	if err != nil {
		chk.fail("traced: %v", err)
		return res
	}
	tl := core.NewTranslator(v, h.pol)
	const reps = 50
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		if _, err := tl.Translate(snap, core.InsertRequest(ins)); err != nil {
			chk.fail("traced: translating a probe insert: %v", err)
			return res
		}
	}
	runtime.ReadMemStats(&m1)
	res.translateAllocs = float64(m1.Mallocs-m0.Mallocs) / reps
	return res
}

// probeValues is a view row that is not in the view: an existing row
// with its key moved past every key the workload uses.
func probeValues(v view.View, snap *storage.Database) []value.Value {
	var vals []value.Value
	for _, r := range v.Materialize(snap).Slice() {
		vals = append(vals, r.Values()...)
		break
	}
	key := v.Schema().Attributes()[0]
	vals[0] = key.Domain.At(key.Domain.Size() - 1)
	return vals
}

// checkRecovered compares the base and view recovered by persist.Open
// with the models.
func checkRecovered(c *checker, db *storage.Database, viewRows *tuple.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for rel := range c.w.baseViews {
		var got []row
		for _, t := range db.Tuples(rel) {
			got = append(got, wireRow(t))
		}
		if err := sameRows("traced: recovered base "+rel, c.base.all(rel), got); err != nil {
			c.failLocked("%v", err)
		}
	}
	var got []row
	for _, t := range viewRows.Slice() {
		got = append(got, wireRow(t))
	}
	if err := sameRows("traced: recovered view", c.view.all(), got); err != nil {
		c.failLocked("%v", err)
	}
}
