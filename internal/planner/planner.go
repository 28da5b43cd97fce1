// Package planner compiles logical algebra plans into physical exec
// iterators. Its central decision mirrors §6 "Implementation": join-family
// operators get hash implementations whenever an equi-key can be extracted
// from the predicate (with the right operand as build side — mandatory for
// the nest join), falling back to nested loops for arbitrary predicates. The
// nest join may alternatively be compiled to sort-merge for ablation
// experiments.
package planner

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
)

// JoinImpl selects the physical family used for joins with extractable
// equi-keys.
type JoinImpl uint8

// Physical join implementation choices.
const (
	ImplAuto JoinImpl = iota // hash when keys exist, else nested loop
	ImplNestedLoop
	ImplHash
	ImplMerge // nest join only; others fall back to hash
	// ImplIndex probes a table's persistent hash index (see
	// storage.Table.CreateIndex) instead of building a per-query hash table:
	// join-family operators whose right operand is a direct scan of an
	// indexed equi-key attribute compile to IndexJoin/IndexNestJoin, skipping
	// the build pass entirely; operators without a usable index fall back to
	// the auto mapping (hash when an equi-key exists, else nested loops).
	ImplIndex
)

// String names the implementation choice.
func (ji JoinImpl) String() string {
	switch ji {
	case ImplAuto:
		return "auto"
	case ImplNestedLoop:
		return "nested-loop"
	case ImplHash:
		return "hash"
	case ImplMerge:
		return "sort-merge"
	case ImplIndex:
		return "idxjoin"
	}
	return "impl?"
}

// Options configure physical planning.
type Options struct {
	// Joins picks the implementation family for all join-like operators.
	Joins JoinImpl
	// Parallelism is the scheduler-degree hint for the hash join family:
	// values >= 2 compile hash joins and hash nest joins to their
	// partitioned forms (ParHashJoin, ParHashNestJoin), which exchange both
	// inputs by key hash across that many partitions and run build/probe
	// morsels on the query's morsel scheduler (exec.Scheduler) — one
	// runtime at every degree, not a separate parallel operator family. 0
	// and 1 mean serial streaming execution. Results are byte-identical at
	// any degree and any steal schedule — final results are canonical sets
	// — so the knob only trades latency.
	Parallelism int
	// Access picks the access path for leaf selections: AccessIndex compiles
	// selections whose equality conjuncts cover a live index prefix to
	// exec.IndexScan (per-selection fallback to scans elsewhere); AccessAuto
	// and AccessScan compile full scans — under the cost-based engine path
	// the chooser resolves AccessAuto before compilation.
	Access AccessPath
	// BatchSize is the rows-per-batch capacity operators are compiled with
	// (0 = exec.DefaultBatchSize; capped at exec.MaxBatchSize). 1 is the
	// row-at-a-time ablation.
	BatchSize int
}

// parallel reports whether planning targets the partitioned operators.
func (o Options) parallel() bool { return o.Parallelism >= 2 }

// Planner compiles logical plans to iterators over a context.
type Planner struct {
	ctx  *exec.Ctx
	opts Options
}

// New returns a planner executing against ctx.
func New(ctx *exec.Ctx, opts Options) *Planner {
	return &Planner{ctx: ctx, opts: opts}
}

// Compile turns a logical plan into a row iterator: the batch plan of
// CompileBatch behind a BatchToRows adapter. Cold row operators read their
// inputs through it.
func (p *Planner) Compile(plan algebra.Plan) (exec.Iterator, error) {
	in, err := p.CompileBatch(plan)
	if err != nil {
		return nil, err
	}
	return &exec.BatchToRows{In: in}, nil
}

// CompileBatch turns a logical plan into a physical batch-iterator tree using
// Options.BatchSize rows per batch (0 = exec.DefaultBatchSize). Hot-path
// nodes — scans, selections, maps, the hash join family — compile to
// batch-native operators; the merge nest join builds its sorted runs
// batch-natively and only re-enters the batch protocol for its merge output;
// the remaining cold nodes (nesting, unnesting, set operations, NL/index
// joins, index scans, the serial hash nest join) compile to row operators
// over BatchToRows-adapted batched subtrees and are re-wrapped in
// RowsToBatch, so a cold operator in the middle of a plan never forces the
// subtree below it to row-at-a-time execution.
func (p *Planner) CompileBatch(plan algebra.Plan) (exec.BatchIterator, error) {
	switch n := plan.(type) {
	case *algebra.Scan:
		return &exec.BatchTableScan{Ctx: p.ctx, Table: n.Table, Size: p.opts.BatchSize}, nil

	case *algebra.Select:
		if p.opts.Access == AccessIndex {
			if m, ok := FindIndexScan(n, p.liveIndexes); ok {
				if ix, live := p.resolveIndex(m.Table, m.Name()); live {
					return p.compileIndexScan(n, m, ix)
				}
			}
			// No usable index on this selection (or it vanished before the
			// resolve): scan fallback below.
		}
		in, err := p.CompileBatch(n.In)
		if err != nil {
			return nil, err
		}
		return &exec.BatchFilter{Ctx: p.ctx, In: in, Var: n.Var, Pred: n.Pred}, nil

	case *algebra.Map:
		in, err := p.CompileBatch(n.In)
		if err != nil {
			return nil, err
		}
		// Map may collapse distinct inputs onto one value; a Distinct keeps
		// set semantics downstream.
		return &exec.BatchDistinct{Ctx: p.ctx, In: &exec.BatchMap{Ctx: p.ctx, In: in, Var: n.Var, Out: n.Out}}, nil

	case *algebra.Join:
		return p.compileJoin(n)

	case *algebra.NestJoin:
		return p.compileNestJoin(n)

	case *algebra.EvalNode:
		return p.rowsToBatch(&exec.EvalScan{Ctx: p.ctx, Expr: n.Expr}), nil

	case *algebra.Nest:
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return p.rowsToBatch(&exec.NestIter{Ctx: p.ctx, In: in, Attrs: n.Attrs, Label: n.Label, NullAware: n.NullAware}), nil

	case *algebra.Unnest:
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return p.rowsToBatch(&exec.UnnestIter{Ctx: p.ctx, In: in, Attr: n.Attr, Scalar: n.Scalar()}), nil

	case *algebra.SetOp:
		l, err := p.Compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.Compile(n.R)
		if err != nil {
			return nil, err
		}
		return p.rowsToBatch(&exec.SetOpIter{Ctx: p.ctx, Kind: int(n.Kind), L: l, R: r}), nil
	}
	return nil, fmt.Errorf("planner: unhandled plan node %T", plan)
}

// rowsToBatch re-enters the batch protocol above a row operator.
func (p *Planner) rowsToBatch(it exec.Iterator) exec.BatchIterator {
	return &exec.RowsToBatch{It: it, Size: p.opts.BatchSize}
}

// compileJoin compiles a flat join: hash-family joins are batch-native
// (BatchHashJoin, or ParHashJoin at degrees >= 2), index and nested-loop
// joins stay row operators behind adapters.
func (p *Planner) compileJoin(n *algebra.Join) (exec.BatchIterator, error) {
	lk, rk, residual := ExtractEquiKeys(n.Pred, n.LVar, n.RVar)
	if p.opts.Joins == ImplIndex {
		if pr, ok := FindIndexProbe(n.R, n.RVar, rk, p.liveIndexes); ok {
			if ix, live := p.resolveIndex(pr.Table, pr.Name()); live {
				l, err := p.Compile(n.L)
				if err != nil {
					return nil, err
				}
				return p.rowsToBatch(&exec.IndexJoin{
					Ctx: p.ctx, Kind: n.Kind, L: l,
					Table: pr.Table, Index: pr.Name(), Ix: ix,
					LVar: n.LVar, RVar: n.RVar,
					LKeys:    probeLKeys(lk, pr),
					Residual: indexResidual(lk, rk, pr, residual),
					RElem:    n.R.Elem(),
				}), nil
			}
		}
		// No usable index on this operator: auto fallback below.
	}
	useHash := len(lk) > 0
	switch p.opts.Joins {
	case ImplNestedLoop:
		useHash = false
	case ImplHash, ImplMerge:
		if len(lk) == 0 {
			return nil, fmt.Errorf("planner: hash join requested but no equi-key in %s", tmql.Format(n.Pred))
		}
		useHash = true
	}
	if !useHash {
		l, err := p.Compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.Compile(n.R)
		if err != nil {
			return nil, err
		}
		return p.rowsToBatch(&exec.NLJoin{
			Ctx: p.ctx, Kind: n.Kind, L: l, R: r,
			LVar: n.LVar, RVar: n.RVar, Pred: n.Pred, RElem: n.R.Elem(),
		}), nil
	}
	bl, err := p.CompileBatch(n.L)
	if err != nil {
		return nil, err
	}
	br, err := p.CompileBatch(n.R)
	if err != nil {
		return nil, err
	}
	if p.opts.parallel() {
		return &exec.ParHashJoin{
			Ctx: p.ctx, Kind: n.Kind, L: bl, R: br,
			LVar: n.LVar, RVar: n.RVar,
			LKeys: lk, RKeys: rk, Residual: residual, RElem: n.R.Elem(),
			Degree: p.opts.Parallelism, BatchSize: p.opts.BatchSize,
		}, nil
	}
	return &exec.BatchHashJoin{
		Ctx: p.ctx, Kind: n.Kind, L: bl, R: br,
		LVar: n.LVar, RVar: n.RVar,
		LKeys: lk, RKeys: rk, Residual: residual, RElem: n.R.Elem(),
	}, nil
}

// compileNestJoin compiles a nest join: the parallel hash nest join
// consumes batches natively (through the exchange), the merge nest join
// builds its sorted runs batch-natively, and the remaining serial forms are
// row operators over batched subtrees.
func (p *Planner) compileNestJoin(n *algebra.NestJoin) (exec.BatchIterator, error) {
	lk, rk, residual := ExtractEquiKeys(n.Pred, n.LVar, n.RVar)
	impl := p.opts.Joins
	if impl == ImplIndex {
		if pr, ok := FindIndexProbe(n.R, n.RVar, rk, p.liveIndexes); ok {
			if ix, live := p.resolveIndex(pr.Table, pr.Name()); live {
				l, err := p.Compile(n.L)
				if err != nil {
					return nil, err
				}
				return p.rowsToBatch(&exec.IndexNestJoin{
					Ctx: p.ctx, L: l,
					Table: pr.Table, Index: pr.Name(), Ix: ix,
					LVar: n.LVar, RVar: n.RVar,
					LKeys:    probeLKeys(lk, pr),
					Residual: indexResidual(lk, rk, pr, residual),
					Fn:       n.Fn, Label: n.Label,
				}), nil
			}
		}
		impl = ImplAuto // no usable index on this operator
	}
	if impl == ImplAuto {
		if len(lk) > 0 {
			impl = ImplHash
		} else {
			impl = ImplNestedLoop
		}
	}
	if impl != ImplNestedLoop && len(lk) == 0 {
		return nil, fmt.Errorf("planner: %s nest join requested but no equi-key in %s",
			impl, tmql.Format(n.Pred))
	}
	if impl == ImplHash && p.opts.parallel() {
		bl, err := p.CompileBatch(n.L)
		if err != nil {
			return nil, err
		}
		br, err := p.CompileBatch(n.R)
		if err != nil {
			return nil, err
		}
		return &exec.ParHashNestJoin{
			Ctx: p.ctx, L: bl, R: br, LVar: n.LVar, RVar: n.RVar,
			LKeys: lk, RKeys: rk, Residual: residual, Fn: n.Fn, Label: n.Label,
			Degree: p.opts.Parallelism, BatchSize: p.opts.BatchSize,
		}, nil
	}
	if impl == ImplMerge {
		// The merge nest join's sort builds consume batches natively; only
		// its output re-enters the batch protocol through an adapter.
		bl, err := p.CompileBatch(n.L)
		if err != nil {
			return nil, err
		}
		br, err := p.CompileBatch(n.R)
		if err != nil {
			return nil, err
		}
		return p.rowsToBatch(&exec.MergeNestJoin{
			Ctx: p.ctx, L: bl, R: br, LVar: n.LVar, RVar: n.RVar,
			LKeys: lk, RKeys: rk, Residual: residual, Fn: n.Fn, Label: n.Label,
		}), nil
	}
	l, err := p.Compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := p.Compile(n.R)
	if err != nil {
		return nil, err
	}
	var it exec.Iterator
	switch impl {
	case ImplNestedLoop:
		it = &exec.NLNestJoin{
			Ctx: p.ctx, L: l, R: r, LVar: n.LVar, RVar: n.RVar,
			Pred: n.Pred, Fn: n.Fn, Label: n.Label,
		}
	default:
		it = &exec.HashNestJoin{
			Ctx: p.ctx, L: l, R: r, LVar: n.LVar, RVar: n.RVar,
			LKeys: lk, RKeys: rk, Residual: residual, Fn: n.Fn, Label: n.Label,
		}
	}
	return p.rowsToBatch(it), nil
}

// ExtractEquiKeys splits a join predicate over (lvar, rvar) into equi-key
// pairs and a residual: every top-level conjunct of the form e1 = e2 with
// FreeVars(e1) ⊆ {lvar} and FreeVars(e2) ⊆ {rvar} (either orientation)
// becomes a key pair; the conjunction of everything else is the residual
// (nil when empty). Constant conjuncts stay in the residual.
func ExtractEquiKeys(pred tmql.Expr, lvar, rvar string) (lkeys, rkeys []tmql.Expr, residual tmql.Expr) {
	conjuncts := SplitConjuncts(pred)
	var rest []tmql.Expr
	for _, c := range conjuncts {
		if eq, ok := c.(*tmql.Binary); ok && eq.Op == tmql.OpEq {
			lf, rf := tmql.FreeVars(eq.L), tmql.FreeVars(eq.R)
			switch {
			case onlyVar(lf, lvar) && onlyVar(rf, rvar) && lf[lvar] && rf[rvar]:
				lkeys = append(lkeys, eq.L)
				rkeys = append(rkeys, eq.R)
				continue
			case onlyVar(lf, rvar) && onlyVar(rf, lvar) && lf[rvar] && rf[lvar]:
				lkeys = append(lkeys, eq.R)
				rkeys = append(rkeys, eq.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	return lkeys, rkeys, JoinConjuncts(rest)
}

// onlyVar reports whether the free-variable set contains nothing but
// (possibly) v.
func onlyVar(free map[string]bool, v string) bool {
	for name := range free {
		if name != v {
			return false
		}
	}
	return true
}

// SplitConjuncts flattens a right- or left-nested AND tree into its
// conjuncts; a nil predicate yields nil. (Delegates to the shared tmql
// helper; kept for the planner's public surface.)
func SplitConjuncts(pred tmql.Expr) []tmql.Expr {
	return tmql.SplitAnd(pred)
}

// JoinConjuncts rebuilds a conjunction from parts (nil for none).
func JoinConjuncts(parts []tmql.Expr) tmql.Expr {
	return tmql.JoinAnd(parts)
}
