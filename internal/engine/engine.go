// Package engine wires the full pipeline: parse → bind → translate
// (strategy) → optimize → execute. When no strategy is fixed in Options (the
// zero value, core.StrategyAuto), the engine runs the unified cost-based
// optimizer: it translates the query under every correct strategy, expands
// each translation into its logical alternatives (the plan as translated,
// its §6 rewrite, and reordered join trees for multi-FROM blocks), costs
// every alternative × join-family × parallelism-degree combination against
// the statistics catalog (exact for tiny tables, histogram/sketch estimates
// above the threshold), and executes the cheapest — the path Explain renders
// together with the full candidate table. Options.Rewrite and Options.PinAlt
// pin one logical alternative instead of toggling a pre-planning pass.
// Planning decisions are memoized in a bounded per-engine LRU plan cache
// keyed on the bound query and options (invalidated by Analyze), so repeated
// queries skip translation and enumeration. It is the implementation behind
// the public tmdb package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/schema"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Engine executes TM queries against a catalog and database.
type Engine struct {
	cat *schema.Catalog
	db  *storage.DB
	// statsCat caches per-table statistics across queries; staleness is
	// tracked per table through storage mutation epochs, so mutating one
	// table recollects only that table's figures (lazily, on next use).
	statsCat *stats.Catalog
	// cache memoizes (bound query, options, table epochs) → physical
	// planning decision, invalidated per table on mutation.
	cache *planCache
}

// New returns an engine over the given schema and data.
func New(cat *schema.Catalog, db *storage.DB) *Engine {
	return &Engine{cat: cat, db: db, statsCat: stats.New(db), cache: newPlanCache()}
}

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// DB returns the engine's database.
func (e *Engine) DB() *storage.DB { return e.db }

// Stats returns the engine's statistics catalog (lazy: tables are scanned
// on first use by the cost model; the catalog itself is safe for concurrent
// queries).
func (e *Engine) Stats() *stats.Catalog { return e.statsCat }

// Analyze eagerly collects statistics for every table (the ANALYZE entry
// point) and returns the engine's catalog. Tables whose statistics are
// already current (their mutation epoch is unchanged) are not rescanned, and
// the plan cache is left alone: cached plans carry the epoch vector of their
// tables, so a plan and the statistics it was costed with can only go stale
// together — per table, on mutation.
func (e *Engine) Analyze() *stats.Catalog {
	for _, name := range e.db.Names() {
		e.statsCat.Table(name)
	}
	return e.statsCat
}

// PlanCacheStats reports the plan cache's entry/capacity and
// hit/miss/eviction counts.
func (e *Engine) PlanCacheStats() CacheStats { return e.cache.stats() }

// SetPlanCacheCapacity bounds the plan cache to n entries with LRU eviction
// (n <= 0 restores DefaultPlanCacheCapacity). Shrinking below the current
// size evicts immediately.
func (e *Engine) SetPlanCacheCapacity(n int) { e.cache.setCapacity(n) }

// ClearPlanCache drops every memoized planning decision.
func (e *Engine) ClearPlanCache() { e.cache.clear() }

// Options configure one query execution.
type Options struct {
	// Strategy selects the unnesting strategy. The zero value
	// (core.StrategyAuto) lets the cost-based planner choose among the
	// correct strategies (nest join, outerjoin+ν*, naive); Kim's
	// transformation is never auto-selected because it loses dangling
	// tuples.
	Strategy core.Strategy
	// Joins selects the physical join family (default: auto — enumerated by
	// cost under StrategyAuto, hash-when-an-equi-key-exists under a fixed
	// strategy).
	Joins planner.JoinImpl
	// Parallelism sizes the query's morsel scheduler: values >= 2 run the
	// hash join family partitioned across a worker pool of that size (hash
	// partitions and pool share the degree; idle workers steal morsels from
	// loaded ones), 1 forces serial execution. The zero value defers to the
	// planner: under StrategyAuto it resolves to runtime.GOMAXPROCS(0)
	// (sized down by statistics — see planner.PartitionDegree) and the cost
	// model decides per query whether a parallel variant actually wins;
	// under a fixed strategy the physical decision is pinned by the caller,
	// so zero stays serial and parallel execution is an explicit opt-in
	// (keeping fixed-strategy experiment numbers comparable across
	// releases). Results are byte-identical at every degree and any steal
	// schedule.
	Parallelism int
	// Rewrite is a compatibility override. The optimizer now enumerates the
	// §6 rewrite rules (selection pushdown through nest joins, selection
	// through projections, dead nest-join elimination, select fusion) as
	// logical alternatives inside the candidate search, so the cost-based
	// path weighs rewritten and as-translated plans automatically and this
	// flag is unnecessary there. Setting it PINS the rewritten alternative:
	// on the cost-based path only rewrite candidates are considered (falling
	// back to the translation when no rule fires); on a fixed-strategy path
	// the rewrite fixpoint is applied to the translated plan, preserving the
	// historical toggle behavior.
	Rewrite bool
	// PinAlt pins one logical alternative by label on the cost-based path:
	// planner.AltBase, planner.AltRewrite, or a join-order label as shown in
	// EXPLAIN's candidate table (e.g. "order:((z y) x)"). Empty means free
	// choice. Pinning a label the query does not generate is an error; the
	// conformance harness uses this to execute every alternative and assert
	// identical results. Ignored on fixed-strategy paths.
	PinAlt string
	// Access selects the access path for leaf selections. The zero value
	// (planner.AccessAuto) lets the cost-based planner weigh index scans
	// against full scans wherever a selection's equality conjuncts cover a
	// live index prefix (fixed-strategy paths stay on scans, keeping
	// experiment numbers comparable); planner.AccessScan pins full scans;
	// planner.AccessIndex pins index scans with per-selection scan fallback.
	Access planner.AccessPath
	// Limits are the query's resource budgets (wall-clock timeout, max
	// result rows, max build bytes). The zero value is unlimited. Limits
	// never affect planning — only execution — so they are excluded from the
	// plan-cache key and identical queries share cached plans across
	// different budgets.
	Limits Limits
	// BatchSize is the rows-per-batch size every plan executes at: the zero
	// value means exec.DefaultBatchSize, a positive value that many rows
	// (clamped to exec.MaxBatchSize), and a negative value 1 — the
	// row-at-a-time ablation. Results and EvalSteps are identical at every
	// size; the size only trades per-batch overhead against per-row
	// dispatch.
	BatchSize int
	// NoSteal disables work stealing in the morsel scheduler, pinning every
	// morsel to its home worker — the partition-dedicated assignment the
	// scheduler replaced. Results are identical either way; the knob exists
	// as an ablation for benchmarks (B10 measures steal vs no-steal under
	// skew) and for diagnosing scheduling anomalies. Like Limits it never
	// affects planning, so it is excluded from the plan-cache key.
	NoSteal bool
}

// pin resolves the effective alternative pin: PinAlt wins, then the Rewrite
// compatibility override.
func (o Options) pin() string {
	if o.PinAlt != "" {
		return o.PinAlt
	}
	if o.Rewrite {
		return planner.AltRewrite
	}
	return ""
}

// batch resolves the BatchSize option to the effective batch size.
func (o Options) batch() int {
	if o.BatchSize < 0 {
		return 1
	}
	return exec.NormalizeBatchSize(o.BatchSize)
}

// resolveParallelism maps the option to an effective degree for the given
// planning path: on the cost-based path the zero value opens the full
// machine (the chooser still decides whether parallelism pays), on the
// fixed path it stays serial.
func resolveParallelism(p int, auto bool) int {
	if p <= 0 {
		if auto {
			return runtime.GOMAXPROCS(0)
		}
		return 1
	}
	return p
}

// Result is the outcome of a query execution.
type Result struct {
	// Value is the query result (a set for SFW queries).
	Value value.Value
	// Plan is the logical plan that was executed.
	Plan algebra.Plan
	// Expr is the bound query expression.
	Expr tmql.Expr
	// Strategy is the unnesting strategy actually used (resolved from Auto).
	Strategy core.Strategy
	// Alt is the logical alternative executed: planner.AltBase for the plain
	// translation, planner.AltRewrite when the §6 rewrite won (or was
	// pinned), an "order:…" label for a reordered join tree.
	Alt string
	// Joins is the join family actually used (resolved from Auto when the
	// cost-based planner chose).
	Joins planner.JoinImpl
	// Access is the access path leaf selections read through
	// (planner.AccessIndex when index scans served them).
	Access planner.AccessPath
	// Parallelism is the partitioned-execution degree the plan ran at
	// (1 = serial).
	Parallelism int
	// Batch is the rows-per-batch size the plan ran at (1 = the
	// row-at-a-time ablation).
	Batch int
	// Cost is the plan's estimated cost. Populated only on the cost-based
	// path (Auto), so fixed-strategy benchmark runs skip statistics work.
	Cost planner.Cost
	// Auto reports whether the cost-based planner chose the plan.
	Auto bool
	// CacheHit reports whether planning was served from the plan cache.
	CacheHit bool
	// Duration is the wall-clock execution time (translation + execution,
	// excluding parse/bind).
	Duration time.Duration
	// EvalSteps counts elementary expression-evaluation steps performed by
	// operators (compiled row programs count the nodes they evaluate, as
	// the evaluator does) and naive evaluation — a machine-independent work
	// measure, identical at every batch size and degree.
	EvalSteps int64
	// Sched reports the morsel scheduler's per-query counters: morsels
	// dispatched to their home worker, morsels stolen by idle workers, and
	// summed worker busy time. All zero for plans with no partitioned
	// operators.
	Sched exec.SchedStats
}

// planned is a resolved physical planning decision: what the plan cache
// stores. Entries are immutable after construction — the plan is compiled
// afresh into iterators per execution, never mutated.
type planned struct {
	plan       algebra.Plan
	strategy   core.Strategy
	alt        string
	joins      planner.JoinImpl
	access     planner.AccessPath
	par        int
	batch      int
	cost       planner.Cost
	auto       bool
	candidates []planner.Candidate
}

// Query parses, binds, translates, and executes a TM query string. It is
// QueryContext under context.Background() — uncancellable, ungoverned
// unless Options.Limits set budgets.
func (e *Engine) Query(src string, opts Options) (*Result, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query observing ctx: cancellation and deadline reach every
// operator's Next()/build loop (including parallel workers, which drain and
// exit leak-free), surfacing as exec.ErrCanceled / exec.ErrDeadlineExceeded
// wrapped in an *AbortError carrying partial-work accounting.
func (e *Engine) QueryContext(ctx context.Context, src string, opts Options) (*Result, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.QueryExprContext(ctx, expr, opts)
}

// QueryExpr executes an already parsed (possibly already bound) expression.
func (e *Engine) QueryExpr(expr tmql.Expr, opts Options) (*Result, error) {
	return e.QueryExprContext(context.Background(), expr, opts)
}

// QueryExprContext is QueryExpr observing ctx.
func (e *Engine) QueryExprContext(ctx context.Context, expr tmql.Expr, opts Options) (*Result, error) {
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return nil, err
	}
	return e.execBound(ctx, bound, opts)
}

// execBound plans and executes an already bound expression — the shared tail
// of QueryExprContext and Prepared.QueryContext. bound must be fully typed
// and is never mutated, so prepared statements may execute it from many
// goroutines. Governance wraps the whole execution: Options.Limits.Timeout
// tightens the context's deadline, a Governor (created only when the context
// is cancellable or budgets are set — otherwise nil, the free path) is
// polled by every operator, and a recovered panic becomes a typed
// *PanicError rather than taking the process down.
func (e *Engine) execBound(ctx context.Context, bound tmql.Expr, opts Options) (*Result, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if err := e.checkTablesLive(tmql.Tables(bound)); err != nil {
			return nil, err
		}
		pl, hit, err := e.plan(bound, opts)
		if err != nil {
			return nil, err
		}
		res, err := e.runPlanned(ctx, bound, opts, pl, hit, start)
		if err != nil && attempt == 0 && errors.Is(err, exec.ErrStaleIndex) {
			// The plan probed an index dropped between planning and Open (the
			// DropIndex cache sweep raced this execution). Sweep the query's
			// tables and replan once against the current index registry; only a
			// second stale failure — the churn outran the retry — surfaces.
			for _, name := range tmql.Tables(bound) {
				e.cache.invalidateTable(name)
			}
			continue
		}
		return res, err
	}
}

// runPlanned executes one resolved planning decision under governance — the
// per-attempt body of execBound.
func (e *Engine) runPlanned(ctx context.Context, bound tmql.Expr, opts Options, pl *planned, hit bool, start time.Time) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Limits.Timeout)
		defer cancel()
	}
	gov := exec.NewGovernor(ctx, opts.Limits.exec())
	ectx := exec.NewCtxGoverned(e.db, gov)
	// One scheduler per query: every partitioned operator of the plan shares
	// the worker pool and the stats counters reported on Result.Sched.
	ectx.Sched = exec.NewScheduler(exec.SchedConfig{
		Workers: pl.par, MorselSize: pl.batch, NoSteal: opts.NoSteal,
	})
	defer recoverAbort(gov, &res, &err)
	pltr := planner.New(ectx, planner.Options{Joins: pl.joins, Parallelism: pl.par, Access: pl.access, BatchSize: pl.batch})
	it, err := pltr.CompileBatch(pl.plan)
	if err != nil {
		if terr := e.checkTablesLive(tmql.Tables(bound)); terr != nil {
			return nil, terr
		}
		return nil, err
	}
	v, err := exec.CollectBatchesGoverned(gov, it)
	if err != nil {
		// A table dropped between the liveness pre-check and execution fails
		// deep in the executor with an untyped unknown-table error; reclassify
		// it (governance aborts keep their own taxonomy).
		if !abortCause(err) {
			if terr := e.checkTablesLive(tmql.Tables(bound)); terr != nil {
				return nil, terr
			}
		}
		return nil, wrapAbort(fmt.Errorf("engine: executing %s: %w", pl.plan.Describe(), err), gov)
	}
	return &Result{
		Value:       v,
		Plan:        pl.plan,
		Expr:        bound,
		Strategy:    pl.strategy,
		Alt:         pl.alt,
		Joins:       pl.joins,
		Access:      pl.access,
		Parallelism: pl.par,
		Batch:       pl.batch,
		Cost:        pl.cost,
		Auto:        pl.auto,
		CacheHit:    hit,
		Duration:    time.Since(start),
		EvalSteps:   ectx.Ev.Steps,
		Sched:       ectx.Sched.Stats(),
	}, nil
}

// plan resolves Options into a concrete (plan, strategy, join family,
// degree), consulting the plan cache first. The cache key carries the
// mutation-epoch vector of the tables the query references, so a cached
// decision is served only while every one of its tables is unchanged — a
// mutated table shows a different epoch, the key misses, and the query
// replans against fresh statistics. The reported bool is true on a cache
// hit.
func (e *Engine) plan(bound tmql.Expr, opts Options) (*planned, bool, error) {
	par := resolveParallelism(opts.Parallelism, opts.Strategy == core.StrategyAuto)
	tables := tmql.Tables(bound)
	if opts.Parallelism == 0 && par > 1 {
		// Left to the planner, the degree is sized from statistics instead of
		// opening the whole machine: enough partitions for ~1k rows each,
		// bounded by GOMAXPROCS. Explicit pins pass through untouched.
		rows := 0.0
		sc := e.Stats()
		for _, name := range tables {
			if ts := sc.Table(name); ts != nil && float64(ts.Card) > rows {
				rows = float64(ts.Card)
			}
		}
		par = planner.PartitionDegree(rows, par)
	}
	epochs := make(map[string]uint64, len(tables))
	for _, name := range tables {
		if t, ok := e.db.Table(name); ok {
			epochs[name] = t.Epoch()
		}
	}
	key := cacheKey(bound, opts, par, tables, epochs)
	if pl, ok := e.cache.get(key); ok {
		return pl, true, nil
	}
	pl, err := e.planMiss(bound, opts, par)
	if err != nil {
		return nil, false, err
	}
	// Validate a pinned join family before caching or executing, so Query and
	// Explain fail identically at plan time (the auto path only ever chooses
	// feasible families). An infeasible decision is never cached.
	if reason := planner.ImplInfeasible(pl.plan, pl.joins); reason != "" {
		return nil, false, fmt.Errorf("engine: %s join requested but %s", pl.joins, reason)
	}
	e.cache.put(key, tables, pl)
	return pl, false, nil
}

// planMiss performs the full planning work: the fixed path translates under
// the requested strategy and keeps the requested join family (applying the
// §6 rewrite fixpoint when Options.Rewrite pins it); the auto path is the
// unified optimizer — logical alternatives × join orders × join families ×
// degrees, costed uniformly.
func (e *Engine) planMiss(bound tmql.Expr, opts Options, par int) (*planned, error) {
	var pl *planned
	if opts.Strategy == core.StrategyAuto {
		var err error
		pl, err = e.autoPlan(bound, opts, par)
		if err != nil {
			return nil, err
		}
	} else {
		tr := core.NewTranslator(e.cat)
		p, err := tr.Translate(bound, opts.Strategy)
		if err != nil {
			return nil, err
		}
		alt := planner.AltBase
		if opts.Rewrite {
			if p, err = algebra.Optimize(tr.Builder(), p); err != nil {
				return nil, err
			}
			alt = planner.AltRewrite
		}
		// On fixed-strategy paths the physical choices are the caller's:
		// AccessAuto stays on scans (an explicit AccessIndex opts in), so
		// historical experiment numbers are unaffected by index creation.
		access := opts.Access
		if access == planner.AccessAuto {
			access = planner.AccessScan
		}
		pl = &planned{plan: p, strategy: opts.Strategy, alt: alt, joins: opts.Joins, access: access, par: par, batch: opts.batch()}
	}
	// Result.Parallelism reports the degree the plan actually runs at: a
	// degree > 1 on a (possibly rewritten) plan with nothing to partition
	// is serial. Checked after the rewrite, which can eliminate joins.
	if pl.par > 1 && !planner.Parallelizable(pl.plan, pl.joins) {
		pl.par = 1
	}
	return pl, nil
}

// autoPlan is the unified cost-based path: translate under every correct
// strategy, expand each translation into its logical alternatives (as
// translated, §6 rewrite, join orders), honor a pinned alternative, and let
// the planner cost alternative × join-family × parallelism candidates to
// pick the cheapest. A fixed Options.Joins pins the join family; strategy,
// alternative, and degree are still enumerated.
func (e *Engine) autoPlan(bound tmql.Expr, opts Options, par int) (*planned, error) {
	est := planner.NewEstimatorStats(e.Stats())
	strategies := make(map[string]core.Strategy)
	var sps []planner.StrategyPlan
	var firstErr error
	for _, s := range core.CandidateStrategies() {
		tr := core.NewTranslator(e.cat)
		p, err := tr.Translate(bound, s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sps = append(sps, planner.StrategyPlan{Strategy: s.String(), Plan: p})
		strategies[s.String()] = s
	}
	if len(sps) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("engine: no strategy could translate the query")
	}
	alts := est.Alternatives(algebra.NewBuilder(e.cat), sps)
	alts, err := planner.PinAlternatives(alts, opts.pin())
	if err != nil {
		return nil, err
	}
	best, all, err := est.Choose(alts, opts.Joins, par, opts.Access)
	if err != nil {
		return nil, err
	}
	for i := range all {
		all[i].Batch = opts.batch()
	}
	return &planned{
		plan:       best.Plan,
		strategy:   strategies[best.Strategy],
		alt:        best.Alt,
		joins:      best.Joins,
		access:     best.Access,
		par:        best.Par,
		batch:      opts.batch(),
		cost:       best.Cost,
		auto:       true,
		candidates: all,
	}, nil
}

// Explain parses, binds, and plans a query, returning the physical plan
// rendering — chosen strategy, join family, and parallelism degree,
// per-operator estimated rows and cost, and (on the cost-based path) every
// candidate considered — without executing it. Planning is served from the
// plan cache when possible, exactly as execution would be.
func (e *Engine) Explain(src string, opts Options) (string, error) {
	return e.ExplainContext(context.Background(), src, opts)
}

// ExplainContext is Explain observing ctx: planning is not interruptible
// mid-enumeration (it is fast and allocation-bound), but an
// already-expired context fails up front with the same taxonomy as
// execution, so clients can treat /explain uniformly with /query.
func (e *Engine) ExplainContext(ctx context.Context, src string, opts Options) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	expr, err := tmql.Parse(src)
	if err != nil {
		return "", err
	}
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return "", err
	}
	return e.explainBound(bound, opts)
}

// ctxErr maps a context's state into the exec error taxonomy.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		if ctx.Err() == context.DeadlineExceeded {
			return exec.ErrDeadlineExceeded
		}
		return exec.ErrCanceled
	default:
		return nil
	}
}

// explainBound renders the physical plan for an already bound expression —
// the shared tail of Explain and Prepared.Explain. Infeasible pinned join
// families are rejected inside plan, identically to execution.
func (e *Engine) explainBound(bound tmql.Expr, opts Options) (string, error) {
	if err := e.checkTablesLive(tmql.Tables(bound)); err != nil {
		return "", err
	}
	pl, _, err := e.plan(bound, opts)
	if err != nil {
		return "", err
	}
	est := planner.NewEstimatorStats(e.Stats())
	var b strings.Builder
	mode := "fixed"
	if pl.auto {
		mode = "cost-based"
	}
	alt := pl.alt
	if alt == "" {
		alt = planner.AltBase
	}
	// sched/morsel render the runtime configuration the plan executes under:
	// the scheduler's worker-pool size (= the degree) and the effective
	// rows-per-morsel the exchange feeds it (one batch per morsel).
	fmt.Fprintf(&b, "strategy=%s alt=%s joins=%s access=%s parallelism=%d sched=%d morsel=%d batch=%d (%s)\n",
		pl.strategy, alt, pl.joins, pl.access, pl.par, pl.par, pl.batch, pl.batch, mode)
	b.WriteString(est.Explain(pl.plan, pl.joins, pl.par, pl.access, pl.batch))
	if pl.auto && len(pl.candidates) > 1 {
		b.WriteString("candidates considered:\n")
		for _, c := range pl.candidates {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	return b.String(), nil
}

// PlanCandidates plans the query (through the plan cache, like Query and
// Explain) and returns every candidate the optimizer considered — the
// machine-readable form of EXPLAIN's candidate table. On a fixed-strategy
// path the slice is empty. The conformance harness uses it to enumerate and
// pin each logical alternative.
func (e *Engine) PlanCandidates(src string, opts Options) ([]planner.Candidate, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return nil, err
	}
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return nil, err
	}
	pl, _, err := e.plan(bound, opts)
	if err != nil {
		return nil, err
	}
	return pl.candidates, nil
}

// ExplainCosts renders the logical plan annotated with the cost model's
// per-node estimates (the auto physical mapping), without strategy
// enumeration. Explain is the physical, candidate-aware variant.
func (e *Engine) ExplainCosts(src string, opts Options) (string, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return "", err
	}
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return "", err
	}
	pl, _, err := e.plan(bound, opts)
	if err != nil {
		return "", err
	}
	return planner.NewEstimatorStats(e.Stats()).ExplainCosts(pl.plan), nil
}
