// Join-order search for multi-FROM blocks. The flat-join translation
// (core.translateFlatJoin) joins sources strictly in FROM order; this file
// recovers the join graph from such a plan — base relations, conjuncts, and
// the result expression, all renormalized to the original FROM variables —
// and runs a Selinger-style dynamic program over it: bushy trees by subset
// partitioning, cardinality-based pruning (only the cheapest plan per
// relation subset survives), cross products avoided while a connected split
// exists. Single-relation conjuncts are additionally pushed onto their scan
// leaf, which the FROM-order translation never did. The best bushy tree and
// the best left-deep tree are offered to Choose as logical alternatives
// labeled by their join-tree shape.
package planner

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// maxOrderRels caps the DP: 2^n subsets with ~3^n split work is fine through
// eight relations and pathological beyond.
const maxOrderRels = 8

// joinGraph is the recovered multi-FROM block: relations scanned, conjuncts
// and result expression in FROM-variable form.
type joinGraph struct {
	rels      []joinRel
	conjuncts []tmql.Expr
	result    tmql.Expr
}

type joinRel struct {
	v     string // FROM variable, also the wrapper tuple label
	table string
}

// JoinOrders returns reordered logical alternatives for p when it is a
// flat-join chain over ≥ 2 stored extensions: the cheapest bushy tree and
// the cheapest left-deep tree under the estimator's cost model (deduplicated
// against each other; the caller dedups against the original). Plans that
// are not flat-join chains yield nil.
func (e *Estimator) JoinOrders(b *algebra.Builder, p algebra.Plan) []StrategyPlan {
	g, ok := extractJoinGraph(p)
	if !ok {
		return nil
	}
	var out []StrategyPlan
	seen := map[string]bool{}
	for _, leftDeepOnly := range []bool{false, true} {
		ent := e.searchJoinOrder(b, g, leftDeepOnly)
		if ent == nil || seen[ent.label] {
			continue
		}
		seen[ent.label] = true
		plan, err := finishJoinOrder(b, g, ent)
		if err != nil {
			continue
		}
		out = append(out, StrategyPlan{Alt: altOrderPrefix + ent.label, Plan: plan})
		if ent.leftDeep {
			break // the bushy optimum is left-deep; the second DP would repeat it
		}
	}
	return out
}

// --- extraction ---

// extractJoinGraph recognizes the flat-join translation shape
//
//	Map[res](σ[rest]?(Join(…Join(wrap(X₁), wrap(X₂))…, wrap(Xₙ))))
//
// with wrap(Xᵢ) = Map[(vᵢ = vᵢ)](Scan Xᵢ), and returns the join graph with
// every expression renormalized to the FROM variables vᵢ. ok is false for
// any other shape.
func extractJoinGraph(p algebra.Plan) (*joinGraph, bool) {
	m, ok := p.(*algebra.Map)
	if !ok {
		return nil, false
	}
	g := &joinGraph{}
	containers := map[string]bool{m.Var: true}
	var rawConjs []tmql.Expr
	body := m.In
	if s, ok := body.(*algebra.Select); ok {
		containers[s.Var] = true
		rawConjs = append(rawConjs, splitNonTrue(s.Pred)...)
		body = s.In
	}
	var walk func(n algebra.Plan) bool
	walk = func(n algebra.Plan) bool {
		if rel, ok := matchWrapper(n); ok {
			g.rels = append(g.rels, rel)
			return true
		}
		j, ok := n.(*algebra.Join)
		if !ok || j.Kind != algebra.JoinInner {
			return false
		}
		containers[j.LVar] = true
		containers[j.RVar] = true
		rawConjs = append(rawConjs, splitNonTrue(j.Pred)...)
		return walk(j.L) && walk(j.R)
	}
	if !walk(body) {
		return nil, false
	}
	if len(g.rels) < 2 || len(g.rels) > maxOrderRels {
		return nil, false
	}
	relVars := map[string]bool{}
	for _, r := range g.rels {
		if relVars[r.v] || containers[r.v] {
			return nil, false
		}
		relVars[r.v] = true
	}
	normalize := func(e tmql.Expr) (tmql.Expr, bool) {
		n := tmql.SubstFieldSel(e, func(u, l string) tmql.Expr {
			if containers[u] && relVars[l] {
				return &tmql.Var{Name: l}
			}
			return nil
		})
		for v := range tmql.FreeVars(n) {
			if !relVars[v] {
				return nil, false
			}
		}
		return n, true
	}
	for _, c := range rawConjs {
		n, ok := normalize(c)
		if !ok {
			return nil, false
		}
		g.conjuncts = append(g.conjuncts, n)
	}
	res, ok := normalize(m.Out)
	if !ok {
		return nil, false
	}
	g.result = res
	return g, true
}

// matchWrapper matches Map[(v = v)](Scan t) and returns its relation.
func matchWrapper(p algebra.Plan) (joinRel, bool) {
	m, ok := p.(*algebra.Map)
	if !ok {
		return joinRel{}, false
	}
	s, ok := m.In.(*algebra.Scan)
	if !ok {
		return joinRel{}, false
	}
	cons, ok := m.Out.(*tmql.TupleCons)
	if !ok || len(cons.Fields) != 1 || cons.Fields[0].Label != m.Var {
		return joinRel{}, false
	}
	v, ok := cons.Fields[0].E.(*tmql.Var)
	if !ok || v.Name != m.Var {
		return joinRel{}, false
	}
	return joinRel{v: m.Var, table: s.Table}, true
}

func splitNonTrue(pred tmql.Expr) []tmql.Expr {
	var out []tmql.Expr
	for _, c := range SplitConjuncts(pred) {
		if lit, ok := c.(*tmql.Lit); ok && lit.V.Kind() == value.KindBool && lit.V.AsBool() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// --- search ---

// orderEntry is one DP cell: the best plan found covering a relation subset.
type orderEntry struct {
	plan  algebra.Plan
	mask  uint // relation subset
	used  uint // conjunct subset already applied
	work  float64
	label string // join-tree rendering over FROM variables
	// leftDeep tracks whether the tree is left-deep (every right operand a
	// single relation) so the dedicated left-deep search can be skipped when
	// the unrestricted optimum already qualifies.
	leftDeep bool
}

// orderBuilder carries the search state; fresh variable names are local so
// alternative labels and plan shapes are deterministic per search.
type orderBuilder struct {
	e     *Estimator
	b     *algebra.Builder
	g     *joinGraph
	fresh int
}

func (ob *orderBuilder) freshVar() string {
	ob.fresh++
	return fmt.Sprintf("jo_%d", ob.fresh)
}

// searchJoinOrder runs the subset DP and returns the best entry covering all
// relations (nil when any construction step fails to type-check, which the
// translation's invariants should preclude).
func (e *Estimator) searchJoinOrder(b *algebra.Builder, g *joinGraph, leftDeepOnly bool) *orderEntry {
	ob := &orderBuilder{e: e, b: b, g: g}
	n := len(g.rels)
	fvs := make([]uint, len(g.conjuncts))
	varBit := map[string]uint{}
	for i, r := range g.rels {
		varBit[r.v] = 1 << uint(i)
	}
	for i, c := range g.conjuncts {
		for v := range tmql.FreeVars(c) {
			fvs[i] |= varBit[v]
		}
	}
	best := make([]*orderEntry, 1<<uint(n))
	for i := range g.rels {
		ent, err := ob.leaf(i, fvs)
		if err != nil {
			return nil
		}
		best[1<<uint(i)] = ent
	}
	for mask := uint(1); mask < 1<<uint(n); mask++ {
		if bits.OnesCount(mask) < 2 {
			continue
		}
		// Two passes: connected splits only, then (if the subset has no
		// connected split at all) any split — the cross-product fallback.
		for _, requireConn := range []bool{true, false} {
			for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
				s2 := mask &^ s1
				if best[s1] == nil || best[s2] == nil {
					continue
				}
				if leftDeepOnly && bits.OnesCount(s2) != 1 {
					continue
				}
				if requireConn && !connected(fvs, best[s1].used|best[s2].used, s1, s2, mask) {
					continue
				}
				ent, err := ob.join(best[s1], best[s2], fvs)
				if err != nil {
					continue
				}
				if best[mask] == nil || ent.work < best[mask].work {
					best[mask] = ent
				}
			}
			if best[mask] != nil {
				break
			}
		}
		if best[mask] == nil {
			return nil
		}
	}
	return best[1<<uint(n)-1]
}

// connected reports whether some unapplied conjunct spans the two sides.
func connected(fvs []uint, used uint, s1, s2, mask uint) bool {
	for i, fv := range fvs {
		if used&(1<<uint(i)) != 0 || fv == 0 {
			continue
		}
		if fv&^mask == 0 && fv&s1 != 0 && fv&s2 != 0 {
			return true
		}
	}
	return false
}

// leaf builds wrap(Xᵢ) with every single-relation conjunct pushed onto it.
func (ob *orderBuilder) leaf(i int, fvs []uint) (*orderEntry, error) {
	r := ob.g.rels[i]
	bit := uint(1) << uint(i)
	sp, err := ob.b.Scan(r.table)
	if err != nil {
		return nil, err
	}
	plan, err := ob.b.Map(sp, r.v, &tmql.TupleCons{
		Fields: []tmql.TupleField{{Label: r.v, E: &tmql.Var{Name: r.v}}},
	})
	if err != nil {
		return nil, err
	}
	ent := &orderEntry{mask: bit, label: r.v, leftDeep: true}
	var parts []tmql.Expr
	for ci, fv := range fvs {
		if fv == bit {
			ent.used |= 1 << uint(ci)
			parts = append(parts, ob.g.conjuncts[ci])
		}
	}
	var out algebra.Plan = plan
	if len(parts) > 0 {
		sv := ob.freshVar()
		pred := ob.readdress(JoinConjuncts(parts), map[string]string{r.v: sv})
		out, err = ob.b.Select(plan, sv, pred)
		if err != nil {
			return nil, err
		}
	}
	ent.plan = out
	ent.work = ob.e.Estimate(out, ImplAuto, 1, AccessScan).Work
	return ent, nil
}

// join combines two entries, applying every not-yet-used conjunct whose
// variables are covered by the union.
func (ob *orderBuilder) join(l, r *orderEntry, fvs []uint) (*orderEntry, error) {
	mask := l.mask | r.mask
	used := l.used | r.used
	lv, rv := ob.freshVar(), ob.freshVar()
	sides := map[string]string{}
	for i, rel := range ob.g.rels {
		if l.mask&(1<<uint(i)) != 0 {
			sides[rel.v] = lv
		} else if r.mask&(1<<uint(i)) != 0 {
			sides[rel.v] = rv
		}
	}
	var parts []tmql.Expr
	for ci, fv := range fvs {
		if used&(1<<uint(ci)) != 0 || fv == 0 || fv&^mask != 0 {
			continue
		}
		used |= 1 << uint(ci)
		parts = append(parts, ob.readdress(ob.g.conjuncts[ci], sides))
	}
	pred := JoinConjuncts(parts)
	if pred == nil {
		pred = &tmql.Lit{V: value.True}
	}
	jp, err := ob.b.Join(algebra.JoinInner, l.plan, r.plan, lv, rv, pred)
	if err != nil {
		return nil, err
	}
	ent := &orderEntry{
		plan: jp, mask: mask, used: used,
		label:    "(" + l.label + " " + r.label + ")",
		leftDeep: l.leftDeep && bits.OnesCount(r.mask) == 1,
	}
	ent.work = ob.e.Estimate(jp, ImplAuto, 1, AccessScan).Work
	return ent, nil
}

// readdress rewrites FROM variables to field accesses through their side's
// join variable: v becomes side.v.
func (ob *orderBuilder) readdress(e tmql.Expr, sides map[string]string) tmql.Expr {
	vars := make([]string, 0, len(sides))
	for v := range sides {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		e = tmql.Subst(e, v, &tmql.FieldSel{X: &tmql.Var{Name: sides[v]}, Label: v})
	}
	return e
}

// finishJoinOrder caps the winning join tree: leftover conjuncts (constants
// only — every variable-bearing conjunct is applied inside the tree) become
// a final selection, then the result expression is mapped.
func finishJoinOrder(b *algebra.Builder, g *joinGraph, ent *orderEntry) (algebra.Plan, error) {
	ob := &orderBuilder{b: b, g: g, fresh: 1000} // disjoint from search names
	plan := ent.plan
	var rest []tmql.Expr
	for ci, c := range g.conjuncts {
		if ent.used&(1<<uint(ci)) == 0 {
			rest = append(rest, c)
		}
	}
	all := map[string]string{}
	for _, r := range g.rels {
		all[r.v] = "" // filled per site below
	}
	if len(rest) > 0 {
		sv := ob.freshVar()
		for v := range all {
			all[v] = sv
		}
		pred := ob.readdress(JoinConjuncts(rest), all)
		sel, err := b.Select(plan, sv, pred)
		if err != nil {
			return nil, err
		}
		plan = sel
	}
	mv := ob.freshVar()
	for v := range all {
		all[v] = mv
	}
	res := ob.readdress(g.result, all)
	return b.Map(plan, mv, res)
}

// OrderLabel reports whether alt is a join-order alternative label and, if
// so, its tree rendering.
func OrderLabel(alt string) (string, bool) {
	if strings.HasPrefix(alt, altOrderPrefix) {
		return strings.TrimPrefix(alt, altOrderPrefix), true
	}
	return "", false
}
