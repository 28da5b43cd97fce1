package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/stats"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Tracing from outside the program: a traced op makes the same sequence of
// public layer calls the engine makes inside Engine.Query, each wrapped in
// a span. Spans stay in memory until the run ends.

// span is one timed call. Spans of one op share op; parent indexes the
// enclosing span in the same tracer (-1 for the op's root).
type span struct {
	op         int64
	parent     int32
	name       string
	start, end time.Duration // since the tracers' common epoch
}

// tally holds the counts a traced pass reads at layer boundaries.
type tally struct {
	evalSteps, dispatched, stolen int64
	// busy is the schedulers' summed worker time; parWall is exec wall
	// time times degree, over executions with a degree above 1.
	busy, parWall time.Duration
	// overhead is, per server round trip, its duration less the
	// server-reported execution time.
	overhead []time.Duration
}

// tracer records one client's spans.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int64
	// engineMu serializes the in-process passes of concurrent clients, so
	// that a plan-cache miss counted during one pass is that pass's own.
	engineMu *sync.Mutex
	// stats is the statistics object last seen per table: a lookup that
	// returns another one recollected the table.
	stats map[string]*stats.TableStats
	tally tally
}

// newTracers returns one tracer per client of w, sharing an epoch.
func newTracers(w world) []*tracer {
	eng := w.engine()
	seen := map[string]*stats.TableStats{}
	for _, name := range eng.DB().Names() {
		seen[name] = eng.Stats().Table(name)
	}
	var mu sync.Mutex
	epoch := time.Now()
	trs := make([]*tracer, w.clients())
	for c := range trs {
		trs[c] = &tracer{epoch: epoch, engineMu: &mu, stats: maps.Clone(seen)}
	}
	return trs
}

// startOp opens the root span of op id.
func (t *tracer) startOp(id int64) {
	t.op = id
	t.stack = t.stack[:0]
	t.begin()
}

// begin opens a span nested in the innermost open one. Like end, it does
// nothing on a nil tracer, so untraced ops share the traced code.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{op: t.op, parent: parent, start: time.Since(t.epoch)})
}

// end closes the innermost open span under name and returns its index.
func (t *tracer) end(name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].name, t.spans[i].end = name, now
	return i
}

func (t *tracer) dur(i int32) time.Duration { return t.spans[i].end - t.spans[i].start }

// tracedQuery runs src through the public layer calls Engine.Query makes —
// parse, bind, statistics per table, planning through the plan cache,
// compile, execute — and encodes the result as JSON, one span per call.
// It returns what the untraced op computes with Engine.Query and
// json.Marshal.
func tracedQuery(tr *tracer, eng *engine.Engine, src string) ([]byte, error) {
	tr.engineMu.Lock()
	defer tr.engineMu.Unlock()
	tr.begin()
	defer tr.end("engine.query")
	tr.begin()
	expr, err := tmql.Parse(src)
	tr.end("tmql.parse")
	if err != nil {
		return nil, err
	}
	tr.begin()
	bound, err := tmql.NewBinder(eng.Catalog()).Bind(expr)
	tr.end("tmql.bind")
	if err != nil {
		return nil, err
	}
	for _, name := range tmql.Tables(bound) {
		tr.begin()
		ts := eng.Stats().Table(name)
		i := tr.end("stats.lookup")
		if ts != tr.stats[name] {
			tr.spans[i].name = "stats.recollect"
			tr.stats[name] = ts
		}
	}
	// Prepared is the public entry to planning through the engine's cache.
	// Prepare repeats the parse and bind timed above, outside any layer
	// span, so that work shows only in the tracing overhead.
	prep, err := eng.Prepare(src)
	if err != nil {
		return nil, err
	}
	misses := eng.PlanCacheStats().Misses
	tr.begin()
	cands, err := prep.Candidates(engine.Options{})
	i := tr.end("engine.plan_hit")
	if err != nil {
		return nil, err
	}
	if eng.PlanCacheStats().Misses != misses {
		tr.spans[i].name = "engine.plan_miss"
	}
	var c *planner.Candidate
	for k := range cands {
		if cands[k].Chosen {
			c = &cands[k]
		}
	}
	if c == nil {
		return nil, errors.New("the planner marked no candidate as chosen")
	}
	// As the engine does: a degree above 1 on a plan with nothing to
	// partition runs serially.
	par := c.Par
	if par > 1 && !planner.Parallelizable(c.Plan, c.Joins) {
		par = 1
	}
	ectx := exec.NewCtx(eng.DB())
	ectx.Sched = exec.NewScheduler(exec.SchedConfig{Workers: par, MorselSize: c.Batch})
	pl := planner.New(ectx, planner.Options{Joins: c.Joins, Parallelism: par, Access: c.Access, BatchSize: c.Batch})
	var v value.Value
	var run int32
	if c.Batch > 0 {
		tr.begin()
		it, err := pl.CompileBatch(c.Plan)
		tr.end("planner.compile")
		if err != nil {
			return nil, err
		}
		tr.begin()
		v, err = exec.CollectBatches(it)
		run = tr.end("exec.run")
		if err != nil {
			return nil, err
		}
	} else {
		tr.begin()
		it, err := pl.Compile(c.Plan)
		tr.end("planner.compile")
		if err != nil {
			return nil, err
		}
		tr.begin()
		v, err = exec.Collect(it)
		run = tr.end("exec.run")
		if err != nil {
			return nil, err
		}
	}
	st := ectx.Sched.Stats()
	tr.tally.evalSteps += ectx.Ev.Steps
	tr.tally.dispatched += st.Dispatched
	tr.tally.stolen += st.Stolen
	if par > 1 {
		tr.tally.busy += time.Duration(st.BusyNanos)
		tr.tally.parWall += tr.dur(run) * time.Duration(par)
	}
	tr.begin()
	b, err := json.Marshal(v)
	tr.end("value.encode")
	return b, err
}

// selfTimes checks that the spans of every op nest and returns, per span
// name, the self time each op spent in spans of that name.
func selfTimes(trs []*tracer) (map[string][]time.Duration, error) {
	out := map[string][]time.Duration{}
	for _, t := range trs {
		children := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.end < s.start {
				return nil, fmt.Errorf("span %s of op %d ends before it starts", s.name, s.op)
			}
			if s.parent < 0 {
				continue
			}
			p := t.spans[s.parent]
			if p.op != s.op || s.start < p.start || s.end > p.end {
				return nil, fmt.Errorf("span %s of op %d does not nest in %s", s.name, s.op, p.name)
			}
			children[s.parent] += s.end - s.start
		}
		perOp := map[string]time.Duration{}
		flush := func() {
			for name, d := range perOp {
				out[name] = append(out[name], d)
			}
			clear(perOp)
		}
		for i, s := range t.spans {
			if s.parent < 0 {
				flush()
			}
			self := s.end - s.start - children[i]
			if self < 0 {
				return nil, fmt.Errorf("span %s of op %d has negative self time", s.name, s.op)
			}
			perOp[s.name] += self
		}
		flush()
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics: span self times from the
// traced half, cache and runtime counters from the untraced half, set-up
// stages from the set-ups.
func layerMetrics(trs []*tracer, traced, plain phaseResult, rc0, rc1 runtimeCounters, times []setupTimes) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	self, err := selfTimes(trs)
	if err != nil {
		return m, err
	}
	for name, metricName := range spanMetrics {
		m[metricName] = us(medianDuration(self[name]))
	}
	var t tally
	for _, tr := range trs {
		t.evalSteps += tr.tally.evalSteps
		t.dispatched += tr.tally.dispatched
		t.stolen += tr.tally.stolen
		t.busy += tr.tally.busy
		t.parWall += tr.tally.parWall
		t.overhead = append(t.overhead, tr.tally.overhead...)
	}
	m["server.overhead_us"] = us(medianDuration(t.overhead))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := plain.cache
	m["engine.cache_hits"] = float64(c.Hits)
	m["engine.cache_misses"] = float64(c.Misses)
	m["engine.cache_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	m["engine.cache_evictions_per_kop"] = ratio(1000*float64(c.Evictions), float64(plain.ops()))
	m["engine.cache_invalidations_per_kop"] = ratio(1000*float64(c.Invalidations), float64(plain.ops()))
	tops := float64(traced.ops())
	m["exec.eval_steps_per_op"] = ratio(float64(t.evalSteps), tops)
	m["exec.morsels_per_op"] = ratio(float64(t.dispatched+t.stolen), tops)
	m["exec.stolen_frac"] = ratio(float64(t.stolen), float64(t.dispatched+t.stolen))
	m["exec.busy_frac"] = ratio(float64(t.busy), float64(t.parWall))
	pops := float64(plain.ops())
	m["runtime.alloc_kb_per_op"] = ratio(float64(rc1.allocBytes-rc0.allocBytes)/1024, pops)
	m["runtime.mallocs_per_op"] = ratio(float64(rc1.mallocs-rc0.mallocs), pops)
	m["runtime.gc_per_kop"] = ratio(1000*float64(rc1.gcs-rc0.gcs), pops)
	m["runtime.gc_cpu_frac"] = ratio(rc1.gcCPU-rc0.gcCPU, rc1.totalCPU-rc0.totalCPU)
	stage := func(f func(setupTimes) time.Duration) float64 {
		ds := make([]time.Duration, len(times))
		for i, st := range times {
			ds[i] = f(st)
		}
		return medianDuration(ds).Seconds()
	}
	m["setup.datagen_s"] = stage(func(s setupTimes) time.Duration { return s.datagen })
	m["setup.index_s"] = stage(func(s setupTimes) time.Duration { return s.index })
	m["setup.analyze_s"] = stage(func(s setupTimes) time.Duration { return s.analyze })
	m["setup.warmup_s"] = stage(func(s setupTimes) time.Duration { return s.warmup })
	m["trace.overhead_frac"] = 1 - ratio(traced.qps(), plain.qps())
	return m, nil
}

// writeSpans writes every span, gzipped, as one tab-separated line: op,
// span id, parent id (-1 for a root), name, start and end in ns since the
// epoch.
func writeSpans(trs []*tracer, cfg config) (string, error) {
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv.gz", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return "", err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range trs {
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(c)<<32 | int64(s.parent)
			}
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, int64(c)<<32|int64(i), parent, s.name, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// query returns the JSON encoding of src's result: through Engine.Query
// when tr is nil, else through tracedQuery.
func query(eng *engine.Engine, src string, tr *tracer) ([]byte, error) {
	if tr != nil {
		return tracedQuery(tr, eng, src)
	}
	res, err := eng.Query(src, engine.Options{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Value)
}
