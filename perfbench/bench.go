package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"tmdb/internal/engine"
)

// world is one set-up instance of a workload: data loaded, indexes built,
// statistics collected, server started and plan cache warm.
type world interface {
	// clients is the number of closed-loop clients.
	clients() int
	// unit is the number of consecutive ops a client completes before the
	// timed loop may stop it (read_write stops only after a delete round,
	// so the table ends at its start size).
	unit() int
	// warmOps is the number of ops per client setup already ran; timed ops
	// continue the same deterministic sequence from there.
	warmOps() int
	// describe names op seq of client c (its query text or write), the
	// sequence the seed fixes.
	describe(c, seq int) string
	// op runs op seq of client c, in spans when tr is not nil. It reports
	// whether the op was a write. Once oracle has run, op fails on any
	// result that differs from the oracle's.
	op(c, seq int, tr *tracer) (write bool, err error)
	// oracle computes the expected results independently of the plan under
	// test. It runs after set-up timing ends.
	oracle() error
	// check verifies end-of-run invariants, outside the timed phase.
	check() error
	engine() *engine.Engine
	// sizes reports the data sizes, for provenance.
	sizes() map[string]int
	close() error
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	datagen, index, analyze, warmup, total time.Duration
}

// workloadDef builds a world from a seed. small selects the sizes the
// benchmark's own test uses.
type workloadDef struct {
	name  string
	setup func(seed int64, small bool, st *setupTimes) (world, error)
}

var workloads = []workloadDef{
	{"nested_report", setupNested},
	{"point_http", setupPoint},
	{"read_write", setupReadWrite},
}

// setups is how many times a run sets the workload up; setup_s is the
// median, and the last instance runs the timed phase.
const setups = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	// rev is the source revision recorded in provenance.
	rev string
	// spanDir receives the traced run's spans.
	spanDir string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opSample is one completed op.
type opSample struct {
	at, dur time.Duration // start since phase start; latency
	write   bool
}

// phaseResult is the outcome of one timed phase.
type phaseResult struct {
	samples  []opSample
	failed   int
	firstErr error
	wall     time.Duration
	cache    engine.CacheStats // plan-cache counter deltas over the phase
}

// runner drives a world's clients in a closed loop, continuing each
// client's op sequence across phases.
type runner struct {
	w   world
	seq []int
}

func newRunner(w world) *runner {
	r := &runner{w: w, seq: make([]int, w.clients())}
	for c := range r.seq {
		r.seq[c] = w.warmOps()
	}
	return r
}

// phase runs every client for d (rounded up to whole units), in spans when
// trs is not nil (one tracer per client).
func (r *runner) phase(d time.Duration, trs []*tracer) phaseResult {
	n := r.w.clients()
	samples := make([][]opSample, n)
	failed := make([]int, n)
	errs := make([]error, n)
	before := r.w.engine().PlanCacheStats()
	start := time.Now()
	deadline := start.Add(d)
	unit := r.w.unit()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			for {
				seq := r.seq[c]
				if seq%unit == 0 && !time.Now().Before(deadline) {
					return
				}
				if tr != nil {
					tr.startOp(int64(c)<<40 | int64(seq))
				}
				t0 := time.Now()
				write, err := r.w.op(c, seq, tr)
				t1 := time.Now()
				if tr != nil {
					tr.end("op")
				}
				r.seq[c]++
				if err != nil {
					failed[c]++
					if errs[c] == nil {
						errs[c] = fmt.Errorf("client %d op %d: %w", c, seq, err)
					}
					continue
				}
				samples[c] = append(samples[c], opSample{at: t0.Sub(start), dur: t1.Sub(t0), write: write})
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	after := r.w.engine().PlanCacheStats()
	res.cache = engine.CacheStats{
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Evictions:     after.Evictions - before.Evictions,
		Invalidations: after.Invalidations - before.Invalidations,
	}
	for c := 0; c < n; c++ {
		res.samples = append(res.samples, samples[c]...)
		res.failed += failed[c]
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
	}
	return res
}

// ofKind returns the samples of writes or of reads.
func (p phaseResult) ofKind(write bool) []opSample {
	var out []opSample
	for _, s := range p.samples {
		if s.write == write {
			out = append(out, s)
		}
	}
	return out
}

// ops is the number of completed ops.
func (p phaseResult) ops() int { return len(p.samples) }

// qps is completed ops per second of wall time.
func (p phaseResult) qps() float64 { return float64(p.ops()) / p.wall.Seconds() }

// percentile is the nearest-rank q-quantile of sorted, with the number of
// samples above its rank.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

func sortedDurations(ss []opSample) []time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.dur
	}
	slices.Sort(ds)
	return ds
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration is the median of ds (the lower middle for even counts).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// printLatency prints the median, p90 and p99 of one op kind, each with
// the sample count and the number of samples beyond it.
func printLatency(out io.Writer, kind string, ss []opSample) {
	if len(ss) == 0 {
		return
	}
	sorted := sortedDurations(ss)
	fmt.Fprintf(out, "# %s latency: n=%d", kind, len(sorted))
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		v, beyond := percentile(sorted, q.q)
		fmt.Fprintf(out, " %s=%.1fus(beyond=%d)", q.name, us(v), beyond)
	}
	fmt.Fprintln(out)
}

// printDrift prints the read-op median of the first and second halves of
// the timed phase, so a slow phase of the host inside a run shows.
func printDrift(out io.Writer, p phaseResult) {
	var first, second []time.Duration
	for _, s := range p.ofKind(false) {
		if s.at < p.wall/2 {
			first = append(first, s.dur)
		} else {
			second = append(second, s.dur)
		}
	}
	fmt.Fprintf(out, "# drift: read p50 first half=%.1fus (n=%d) second half=%.1fus (n=%d)\n",
		us(medianDuration(first)), len(first), us(medianDuration(second)), len(second))
}

// heapMB is the live heap: the bytes of reachable objects after a
// collection. The second collection empties the sync.Pool victim caches
// the first one fills. HeapInuse would add the free space of partly used
// spans, which on point_http doubles the figure and moves it by ±8% from
// run to run with the interleaving of allocations.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeCounters are the process-wide allocation and GC counters.
type runtimeCounters struct {
	allocBytes, mallocs, gcs uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	rc := runtimeCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rc
}

// run sets the workload up, runs its timed phase and checks its results.
// Diagnostics go to out as lines starting with "#".
func run(cfg config, out io.Writer) (*report, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("seconds must be positive")
	}
	var w world
	var times []setupTimes
	for i := 0; i < setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			w = nil
		}
		runtime.GC()
		var st setupTimes
		t0 := time.Now()
		nw, err := def.setup(cfg.seed, cfg.small, &st)
		st.total = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		w = nw
		times = append(times, st)
	}
	defer w.close()
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	printProvenance(out, cfg, w)
	printSetup(out, times)

	d := time.Duration(cfg.seconds * float64(time.Second))
	r := newRunner(w)
	rep := &report{Metrics: map[string]metric{}}
	var failures []error
	if !cfg.trace {
		p := r.phase(d, nil)
		rep.Attempted, rep.Failed = p.ops()+p.failed, p.failed
		if p.firstErr != nil {
			failures = append(failures, p.firstErr)
		}
		reads := sortedDurations(p.ofKind(false))
		p50, _ := percentile(reads, 0.5)
		p90, _ := percentile(reads, 0.9)
		setup := make([]time.Duration, len(times))
		for i, t := range times {
			setup[i] = t.total
		}
		set := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(name)} }
		set("qps", p.qps())
		set("p50_us", us(p50))
		set("p90_us", us(p90))
		set("setup_s", medianDuration(setup).Seconds())
		printLatency(out, "read", p.ofKind(false))
		printLatency(out, "write", p.ofKind(true))
		printDrift(out, p)
		fmt.Fprintf(out, "# plan cache: hits=%d misses=%d evictions=%d invalidations=%d\n",
			p.cache.Hits, p.cache.Misses, p.cache.Evictions, p.cache.Invalidations)
		// The samples are the benchmark's, not the program's: drop them
		// before measuring the heap.
		p.samples, reads = nil, nil
		set("heap_mb", heapMB())
	} else {
		// Half the time untraced, half traced: the untraced half gives the
		// runtime counters and the reference rate for the tracing overhead.
		rc0 := readRuntime()
		plain := r.phase(d/2, nil)
		rc1 := readRuntime()
		trs := newTracers(w)
		traced := r.phase(d/2, trs)
		rep.Attempted = plain.ops() + plain.failed + traced.ops() + traced.failed
		rep.Failed = plain.failed + traced.failed
		for _, e := range []error{plain.firstErr, traced.firstErr} {
			if e != nil {
				failures = append(failures, e)
			}
		}
		lm, err := layerMetrics(trs, traced, plain, rc0, rc1, times)
		if err != nil {
			failures = append(failures, err)
		}
		for name, v := range lm {
			rep.Metrics[name] = metric{v, unitOf(name)}
		}
		printLatency(out, "read (untraced half)", plain.ofKind(false))
		printLatency(out, "read (traced half)", traced.ofKind(false))
		printDrift(out, plain)
		if path, err := writeSpans(trs, cfg); err != nil {
			failures = append(failures, err)
		} else {
			fmt.Fprintf(out, "# spans written to %s\n", path)
		}
	}
	if err := w.check(); err != nil {
		failures = append(failures, fmt.Errorf("check: %w", err))
	}
	for _, f := range failures {
		fmt.Fprintf(out, "# FAILED: %v\n", f)
	}
	rep.Correct = len(failures) == 0 && rep.Failed == 0 && rep.Attempted > 0
	if rep.Attempted == 0 {
		rep.Attempted = 1
		rep.Failed = 1
	}
	return rep, nil
}

func printProvenance(out io.Writer, cfg config, w world) {
	rev := cfg.rev
	if rev == "" {
		rev = "unknown"
	}
	fmt.Fprintf(out, "# provenance: workload=%s seed=%d seconds=%g trace=%t sizes=%v plan_cache_capacity=%d gomaxprocs=%d numcpu=%d go=%s rev=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, w.sizes(), w.engine().PlanCacheStats().Capacity,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rev)
}

func printSetup(out io.Writer, times []setupTimes) {
	for i, t := range times {
		fmt.Fprintf(out, "# setup %d: total=%.3fs datagen=%.3fs index=%.3fs analyze=%.3fs warmup=%.3fs\n",
			i, t.total.Seconds(), t.datagen.Seconds(), t.index.Seconds(), t.analyze.Seconds(), t.warmup.Seconds())
	}
}

// revision is the source revision the benchmark reports, taken from the
// environment of the wrapper script.
func revision() string { return os.Getenv("PERFBENCH_REV") }
