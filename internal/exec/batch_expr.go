package exec

import (
	"fmt"

	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Compiled row programs for the batched operators. The expressions that
// dominate hot plans — field selections off the row variable, comparisons
// against literals or other fields, conjunctions of those, and tuple
// constructors over them — are compiled once at Open into direct closures
// over value.Value, so the per-row batch loops skip the evaluator's tree
// walk entirely. Everything outside this subset falls back to the generic
// evaluator with a reused environment node (eval.Env.Rebind), which keeps
// semantics and error behavior exactly those of the evaluator.
//
// Semantics parity: compiled comparisons go through eval.Apply — the same
// function the evaluator uses — and compiled field selection reproduces the
// evaluator's error messages verbatim, so a query errors identically whether
// its predicate compiled or not. Compiled programs add one step per node
// they evaluate to the context's evaluator, exactly as eval.EvalEnv does
// (scalars and comparisons have a fixed node count, added once per
// evaluation; AND/OR count as they short-circuit), so EvalSteps counts the
// same work whether an expression compiled or not — and therefore does not
// depend on batch size or degree.

// scalar2 is a compiled scalar expression over up to two row variables.
type scalar2 func(a, b value.Value) (value.Value, error)

// pred2 is a compiled boolean expression over up to two row variables.
type pred2 func(a, b value.Value) (bool, error)

// compileScalar2 compiles e to a direct function of the rows bound to n1 and
// n2 (pass n2 = "" for single-variable contexts), or nil when e falls
// outside the compiled subset: literals, the row variables themselves, and
// field-selection chains over them. Scalars do not count steps themselves:
// their consumer adds nodes(e) per evaluation.
func compileScalar2(e tmql.Expr, n1, n2 string) scalar2 {
	switch n := e.(type) {
	case *tmql.Lit:
		v := n.V
		return func(value.Value, value.Value) (value.Value, error) { return v, nil }
	case *tmql.Var:
		if n.Name == n1 {
			return func(a, _ value.Value) (value.Value, error) { return a, nil }
		}
		if n2 != "" && n.Name == n2 {
			return func(_, b value.Value) (value.Value, error) { return b, nil }
		}
		return nil
	case *tmql.FieldSel:
		x := compileScalar2(n.X, n1, n2)
		if x == nil {
			return nil
		}
		label := n.Label
		return func(a, b value.Value) (value.Value, error) {
			xv, err := x(a, b)
			if err != nil {
				return value.Value{}, err
			}
			if xv.Kind() != value.KindTuple {
				return value.Value{}, fmt.Errorf("eval: field %s of non-tuple %s", label, xv)
			}
			f, ok := xv.Get(label)
			if !ok {
				return value.Value{}, fmt.Errorf("eval: tuple has no field %s", label)
			}
			return f, nil
		}
	}
	return nil
}

// compilePred2 compiles a predicate to a direct boolean function, or nil
// when it falls outside the compiled subset: comparisons between compiled
// scalars and AND/OR combinations of compiled predicates (which always yield
// booleans, so the evaluator's short-circuit truthiness is reproduced
// exactly).
func compilePred2(e tmql.Expr, n1, n2 string, ev *eval.Evaluator) pred2 {
	b, ok := e.(*tmql.Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case tmql.OpAnd, tmql.OpOr:
		l, r := compilePred2(b.L, n1, n2, ev), compilePred2(b.R, n1, n2, ev)
		if l == nil || r == nil {
			return nil
		}
		and := b.Op == tmql.OpAnd
		return func(a, c value.Value) (bool, error) {
			ev.Steps++
			lb, err := l(a, c)
			if err != nil {
				return false, err
			}
			if lb != and { // false AND _, true OR _ short-circuit
				return lb, nil
			}
			return r(a, c)
		}
	case tmql.OpEq, tmql.OpNe, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe:
		ls, rs := compileScalar2(b.L, n1, n2), compileScalar2(b.R, n1, n2)
		if ls == nil || rs == nil {
			return nil
		}
		op, steps := b.Op, nodes(b)
		return func(a, c value.Value) (bool, error) {
			ev.Steps += steps
			lv, err := ls(a, c)
			if err != nil {
				return false, err
			}
			rv, err := rs(a, c)
			if err != nil {
				return false, err
			}
			v, err := eval.Apply(op, lv, rv)
			if err != nil {
				return false, err
			}
			return v.AsBool(), nil
		}
	}
	return nil
}

// nodes is the number of evaluator steps one evaluation of a compiled
// scalar, comparison or tuple constructor takes: one per node.
func nodes(e tmql.Expr) int64 {
	switch n := e.(type) {
	case *tmql.FieldSel:
		return 1 + nodes(n.X)
	case *tmql.Binary:
		return 1 + nodes(n.L) + nodes(n.R)
	case *tmql.TupleCons:
		s := int64(1)
		for _, f := range n.Fields {
			s += nodes(f.E)
		}
		return s
	}
	return 1
}

// rowPredicate evaluates a single-variable predicate per row: compiled when
// the shape allows, generic evaluation under a reused environment node
// otherwise. Not safe for concurrent use (the environment node is shared
// across rows); parallel workers build their own.
type rowPredicate struct {
	c        *Ctx
	pred     tmql.Expr
	compiled pred2
	env      *eval.Env
}

func newRowPredicate(c *Ctx, pred tmql.Expr, varName string) *rowPredicate {
	p := &rowPredicate{c: c, pred: pred}
	if pred == nil {
		return p
	}
	if p.compiled = compilePred2(pred, varName, "", c.Ev); p.compiled == nil {
		p.env = env1(varName, value.Value{})
	}
	return p
}

func (p *rowPredicate) eval(row value.Value) (bool, error) {
	if p.pred == nil {
		return true, nil
	}
	if p.compiled != nil {
		return p.compiled(row, value.Value{})
	}
	p.env.Rebind(row)
	return p.c.evalPred(p.pred, p.env)
}

// pairPredicate is rowPredicate over two variables — the join residual form.
type pairPredicate struct {
	c          *Ctx
	pred       tmql.Expr
	compiled   pred2
	envL, envR *eval.Env // envR is the head of the chain, envL its tail node
}

func newPairPredicate(c *Ctx, pred tmql.Expr, lvar, rvar string) *pairPredicate {
	p := &pairPredicate{c: c, pred: pred}
	if pred == nil {
		return p
	}
	if p.compiled = compilePred2(pred, lvar, rvar, c.Ev); p.compiled == nil {
		p.envL = env1(lvar, value.Value{})
		p.envR = p.envL.Bind(rvar, value.Value{})
	}
	return p
}

func (p *pairPredicate) eval(l, r value.Value) (bool, error) {
	if p.pred == nil {
		return true, nil
	}
	if p.compiled != nil {
		return p.compiled(l, r)
	}
	p.envL.Rebind(l)
	p.envR.Rebind(r)
	return p.c.evalPred(p.pred, p.envR)
}

// rowProjector evaluates a Map output expression per row: compiled for
// scalar-subset expressions and tuple constructors over them, generic with a
// reused environment otherwise.
type rowProjector struct {
	c        *Ctx
	out      tmql.Expr
	compiled scalar2
	steps    int64
	env      *eval.Env
}

func newRowProjector(c *Ctx, out tmql.Expr, varName string) *rowProjector {
	p := &rowProjector{c: c, out: out, steps: nodes(out)}
	if p.compiled = compileProjector(out, varName); p.compiled == nil {
		p.env = env1(varName, value.Value{})
	}
	return p
}

// compileProjector extends the scalar subset with tuple constructors, the
// shape every SELECT projection bottoms out in.
func compileProjector(out tmql.Expr, varName string) scalar2 {
	if s := compileScalar2(out, varName, ""); s != nil {
		return s
	}
	cons, ok := out.(*tmql.TupleCons)
	if !ok {
		return nil
	}
	labels := make([]string, len(cons.Fields))
	scalars := make([]scalar2, len(cons.Fields))
	for i, f := range cons.Fields {
		if scalars[i] = compileScalar2(f.E, varName, ""); scalars[i] == nil {
			return nil
		}
		labels[i] = f.Label
	}
	return func(a, b value.Value) (value.Value, error) {
		fs := make([]value.Field, len(scalars))
		for i, s := range scalars {
			fv, err := s(a, b)
			if err != nil {
				return value.Value{}, err
			}
			fs[i] = value.F(labels[i], fv)
		}
		return value.TupleOf(fs...), nil
	}
}

func (p *rowProjector) eval(row value.Value) (value.Value, error) {
	if p.compiled != nil {
		p.c.Ev.Steps += p.steps
		return p.compiled(row, value.Value{})
	}
	p.env.Rebind(row)
	return p.c.evalIn(p.out, p.env)
}

// keyEncoder appends the encoded join/partition key of a row onto a caller
// scratch buffer: compiled extractors when every key expression is in the
// scalar subset, generic evaluation under a reused environment otherwise.
// Not safe for concurrent use; fork per worker.
type keyEncoder struct {
	c        *Ctx
	keys     []tmql.Expr
	compiled []scalar2
	steps    int64
	env      *eval.Env
}

func newKeyEncoder(c *Ctx, keys []tmql.Expr, varName string) *keyEncoder {
	enc := &keyEncoder{c: c, keys: keys, compiled: make([]scalar2, len(keys))}
	for i, k := range keys {
		enc.steps += nodes(k)
		if enc.compiled[i] = compileScalar2(k, varName, ""); enc.compiled[i] == nil {
			enc.compiled = nil
			enc.env = env1(varName, value.Value{})
			break
		}
	}
	return enc
}

// appendKey appends row's encoded key onto buf and returns the extended
// slice, exactly as appendRowKey does for the cold row operators.
func (e *keyEncoder) appendKey(buf []byte, row value.Value) ([]byte, error) {
	if e.compiled != nil {
		e.c.Ev.Steps += e.steps
		for _, s := range e.compiled {
			kv, err := s(row, value.Value{})
			if err != nil {
				return nil, err
			}
			buf = value.AppendKey(buf, kv)
		}
		return buf, nil
	}
	e.env.Rebind(row)
	for _, k := range e.keys {
		kv, err := e.c.evalIn(k, e.env)
		if err != nil {
			return nil, err
		}
		buf = value.AppendKey(buf, kv)
	}
	return buf, nil
}
