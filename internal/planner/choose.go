package planner

import (
	"fmt"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
)

// Cost-based physical planning: the engine translates the query once per
// candidate unnesting strategy, Alternatives expands each translation into
// its logical alternatives (as translated, §6-rewritten, reordered joins),
// and Choose enumerates those plans × the physical join families × the
// parallelism degrees, estimates each feasible combination, and returns the
// cheapest. This replaces the seed behavior where the caller had to fix
// Options.Strategy and Options.Joins by hand and Options.Rewrite was a
// pre-planning toggle the optimizer could not weigh.

// StrategyPlan is one logical candidate plan: a strategy's translation of a
// query, optionally refined into a labeled logical alternative (the planner
// stays agnostic of the core package to keep the import graph acyclic). An
// empty Alt means AltBase, the translation as produced.
type StrategyPlan struct {
	Strategy string
	// Alt labels the logical alternative this plan embodies: AltBase,
	// AltRewrite, or a join-order label ("order:(x (y z))").
	Alt  string
	Plan algebra.Plan
}

// Candidate is one logical alternative × join-implementation × access-path
// × parallelism combination considered by Choose.
type Candidate struct {
	Strategy string
	// Alt is the logical-alternative label (AltBase when the strategy's
	// translation ran unmodified).
	Alt   string
	Joins JoinImpl
	// Access is the access path leaf selections read through (AccessScan
	// unless an index-scan variant was enumerated).
	Access AccessPath
	// Par is the partitioned-execution degree this candidate was costed at
	// (1 = serial).
	Par int
	// Batch is the rows-per-batch size the engine executes the candidate at.
	// Batch size is not costed, so Choose leaves it zero and the engine
	// stamps the size it executes at on every candidate it reports.
	Batch int
	Plan  algebra.Plan
	Cost  Cost
	// Infeasible is non-empty when the combination cannot execute (e.g. a
	// hash family requested with no equi-key); such candidates are never
	// chosen.
	Infeasible string
	// Chosen marks the winning candidate.
	Chosen bool
}

// String renders the candidate as one row of EXPLAIN's candidate table:
// strategy, logical alternative (the "rewrite" column), join family with
// degree and access path, and estimated cost.
func (c Candidate) String() string {
	joins := c.Joins.String()
	if c.Par > 1 {
		joins = fmt.Sprintf("%s×%d", joins, c.Par)
	}
	if c.Access == AccessIndex {
		joins += "+idxscan"
	}
	alt := c.Alt
	if alt == "" {
		alt = AltBase
	}
	label := fmt.Sprintf("%-9s %-16s × %-11s", c.Strategy, alt, joins)
	switch {
	case c.Infeasible != "":
		return fmt.Sprintf("%s  infeasible: %s", label, c.Infeasible)
	case c.Chosen:
		return fmt.Sprintf("%s  cost≈%.0f  ← chosen", label, c.Cost.Work)
	default:
		return fmt.Sprintf("%s  cost≈%.0f", label, c.Cost.Work)
	}
}

// Choose picks the cheapest feasible strategy × join-implementation ×
// access-path × parallelism combination by estimated work. fixed restricts
// the join family when the caller set one explicitly (ImplAuto enumerates
// all); par is the maximum partitioned-execution degree — combinations that
// compile to partitioned operators are additionally costed at that degree,
// so EXPLAIN shows whether parallelism pays and the winner carries the
// chosen degree. access pins the access path: AccessAuto enumerates the
// full-scan variant of every combination plus an index-scan variant for
// plans where a live index can serve a selection; AccessScan and AccessIndex
// restrict the enumeration to that path (AccessIndex still falls back to
// scans per selection at compile time, exactly as ImplIndex falls back per
// join operator). Plans without join-family operators collapse to a single
// candidate per strategy, since the implementation choice cannot matter.
// The returned slice reports every candidate considered (for EXPLAIN); the
// returned pointer aliases its winning entry.
func (e *Estimator) Choose(plans []StrategyPlan, fixed JoinImpl, par int, access AccessPath) (*Candidate, []Candidate, error) {
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("planner: no candidate plans to choose from")
	}
	impls := []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge}
	if fixed != ImplAuto {
		impls = []JoinImpl{fixed}
	}
	var all []Candidate
	best := -1
	for _, sp := range plans {
		implsHere := impls
		if !hasJoinFamily(sp.Plan) {
			implsHere = []JoinImpl{ImplAuto}
		} else if fixed == ImplAuto && e.HasIndexProbe(sp.Plan) {
			// A live persistent index can serve at least one join of this
			// plan: the idxjoin family joins the enumeration (it skips the
			// right-input drain and build pass where the index applies and
			// falls back to the auto mapping elsewhere).
			implsHere = append(append([]JoinImpl{}, implsHere...), ImplIndex)
		}
		accesses := []AccessPath{AccessScan}
		switch access {
		case AccessAuto:
			if e.HasIndexScan(sp.Plan) {
				accesses = append(accesses, AccessIndex)
			}
		case AccessIndex:
			accesses = []AccessPath{AccessIndex}
		}
		alt := sp.Alt
		if alt == "" {
			alt = AltBase
		}
		for _, impl := range implsHere {
			// Feasibility does not depend on degree or access path: report an
			// infeasible combination once, not per degree.
			if reason := ImplInfeasible(sp.Plan, impl); reason != "" {
				all = append(all, Candidate{
					Strategy: sp.Strategy, Alt: alt, Joins: impl, Access: AccessScan,
					Par: 1, Plan: sp.Plan, Infeasible: reason,
				})
				continue
			}
			degrees := []int{1}
			if par > 1 && Parallelizable(sp.Plan, impl) {
				degrees = append(degrees, par)
			}
			for _, deg := range degrees {
				for _, acc := range accesses {
					c := Candidate{Strategy: sp.Strategy, Alt: alt, Joins: impl, Access: acc, Par: deg, Plan: sp.Plan}
					c.Cost = e.Estimate(sp.Plan, impl, deg, acc)
					all = append(all, c)
					if best < 0 || c.Cost.Work < all[best].Cost.Work {
						best = len(all) - 1
					}
				}
			}
		}
	}
	if best < 0 {
		return nil, all, fmt.Errorf("planner: no feasible strategy × join combination (joins=%s)", fixed)
	}
	all[best].Chosen = true
	return &all[best], all, nil
}

// Parallelizable reports whether the plan contains a join-family operator
// that the given implementation choice would compile to a partitioned
// parallel operator at degrees >= 2. The idxjoin family is deliberately
// serial: index probes have no build pass to partition, so ImplIndex plans
// report false and run at degree 1. The decision reuses the same
// implementation-resolution rules Compile applies — effectiveJoinImpl plus
// the flat-join merge→hash lowering — so the chooser, the EXPLAIN renderer,
// and compilation cannot drift apart. The engine uses it to report an
// honest Result.Parallelism for fixed-strategy plans.
func Parallelizable(p algebra.Plan, impl JoinImpl) bool {
	switch j := p.(type) {
	case *algebra.Join:
		lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		eff := effectiveJoinImpl(impl, len(lk) > 0)
		if eff == ImplMerge {
			eff = ImplHash // flat joins have no merge variant; Compile uses hash
		}
		if eff == ImplHash {
			return true
		}
	case *algebra.NestJoin:
		lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		if effectiveJoinImpl(impl, len(lk) > 0) == ImplHash {
			return true
		}
	}
	for _, ch := range p.Children() {
		if Parallelizable(ch, impl) {
			return true
		}
	}
	return false
}

// ImplInfeasible reports why a plan cannot be compiled under the given join
// implementation ("" when it can): the hash and sort-merge families require
// an extractable equi-key on every join-family operator, mirroring the
// errors Compile would raise. The idxjoin family is always feasible — an
// operator without a usable index falls back to the auto mapping.
func ImplInfeasible(p algebra.Plan, impl JoinImpl) string {
	if impl != ImplHash && impl != ImplMerge {
		return ""
	}
	var reason string
	var walk func(n algebra.Plan)
	walk = func(n algebra.Plan) {
		if reason != "" {
			return
		}
		switch j := n.(type) {
		case *algebra.Join:
			if lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar); len(lk) == 0 {
				reason = fmt.Sprintf("no equi-key in %s", tmql.Format(j.Pred))
				return
			}
		case *algebra.NestJoin:
			if lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar); len(lk) == 0 {
				reason = fmt.Sprintf("no equi-key in %s", tmql.Format(j.Pred))
				return
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(p)
	return reason
}

// hasJoinFamily reports whether the plan contains any join-family operator,
// i.e. whether the join-implementation choice can affect execution.
func hasJoinFamily(p algebra.Plan) bool {
	switch p.(type) {
	case *algebra.Join, *algebra.NestJoin:
		return true
	}
	for _, ch := range p.Children() {
		if hasJoinFamily(ch) {
			return true
		}
	}
	return false
}

// Explain renders the plan as the physical operator tree the given
// implementation choice, degree and access path compile to, annotated with
// per-node estimated rows and cost — the body of the engine's EXPLAIN.
// Partitioned operators render as "ParHashJoin[4]", index-served selections
// as "IndexScan(X) using X(b)" (the chain nodes above the bucket rows still
// render; the base scan below them never runs and does not), and
// batch-native operators carry their batch size ("HashJoin[batch=1024]");
// operators without the suffix are row operators behind adapters.
func (e *Estimator) Explain(p algebra.Plan, impl JoinImpl, par int, access AccessPath, batch int) string {
	batch = exec.NormalizeBatchSize(batch)
	var b strings.Builder
	var hidden *algebra.Scan // the base scan under an IndexScan
	var walk func(n algebra.Plan, depth int)
	walk = func(n algebra.Plan, depth int) {
		if s, ok := n.(*algebra.Scan); ok && s == hidden {
			return
		}
		desc, scan := e.physicalDescribe(n, impl, par, access)
		if scan != nil {
			hidden = scan
		} else if e.batchNative(n, impl, par) {
			desc += fmt.Sprintf("[batch=%d]", batch)
		}
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s  (%s)\n", desc, e.Estimate(n, impl, par, access))
		for _, ch := range n.Children() {
			walk(ch, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}

// physicalDescribe is the estimator-aware operator naming: under the
// idxjoin family it consults the index registry to render index-served
// operators as "Idx…" with the probed index (naming the auto fallback for
// the rest), and under the idxscan access path it renders index-served
// selections as "IndexScan" with the probed index and depth, also returning
// the base scan the index replaces; everything else delegates to
// PhysicalDescribe.
func (e *Estimator) physicalDescribe(n algebra.Plan, impl JoinImpl, par int, access AccessPath) (string, *algebra.Scan) {
	if access == AccessIndex {
		if sel, ok := n.(*algebra.Select); ok {
			if m, ok := e.findIndexScanStats(sel); ok {
				_, scan, _ := AccessChain(sel.In)
				desc := fmt.Sprintf("IndexScan(%s) using %s(%s)", m.Table, m.Table, m.Name())
				if m.Depth < len(m.IndexAttrs) {
					desc += fmt.Sprintf(" prefix=%d", m.Depth)
				}
				if len(m.Points) > 1 {
					desc += fmt.Sprintf(" points=%d", len(m.Points))
				}
				if m.Residual != nil {
					desc += fmt.Sprintf(" residual[%s]", tmql.Format(m.Residual))
				}
				return desc, scan
			}
		}
	}
	if impl != ImplIndex {
		return PhysicalDescribe(n, impl, par), nil
	}
	switch j := n.(type) {
	case *algebra.Join:
		if pr, ok := e.indexProbeFor(j.R, j.RVar, j.Pred, j.LVar); ok {
			return fmt.Sprintf("Idx%s using %s(%s)", j.Describe(), pr.Table, pr.Name()), nil
		}
	case *algebra.NestJoin:
		if pr, ok := e.indexProbeFor(j.R, j.RVar, j.Pred, j.LVar); ok {
			return fmt.Sprintf("Idx%s using %s(%s)", j.Describe(), pr.Table, pr.Name()), nil
		}
	}
	return PhysicalDescribe(n, ImplAuto, par), nil
}

// batchNative reports whether CompileBatch compiles the node to a
// batch-native operator (as opposed to a row operator behind adapters), so
// EXPLAIN's [batch=N] annotations cannot drift from compilation: scans,
// selections and maps are batch-native (Explain handles index-served
// selections before asking); flat joins are batch-native exactly when they
// resolve to the hash family (BatchHashJoin serially, ParHashJoin
// partitioned); nest joins only through the partitioned exchange (the
// serial HashNestJoin stays a row operator).
func (e *Estimator) batchNative(n algebra.Plan, impl JoinImpl, par int) bool {
	switch j := n.(type) {
	case *algebra.Scan, *algebra.Map, *algebra.Select:
		return true
	case *algebra.Join:
		lk, rk, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		if impl == ImplIndex {
			if _, ok := FindIndexProbe(j.R, j.RVar, rk, e.statsIndexes); ok {
				return false
			}
			// No usable index: CompileBatch falls back to the auto mapping.
			return len(lk) > 0
		}
		eff := effectiveJoinImpl(impl, len(lk) > 0)
		return eff == ImplHash || eff == ImplMerge // flat-join merge lowers to hash
	case *algebra.NestJoin:
		lk, rk, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		eff := impl
		if eff == ImplIndex {
			if _, ok := FindIndexProbe(j.R, j.RVar, rk, e.statsIndexes); ok {
				return false
			}
			eff = ImplAuto
		}
		return effectiveJoinImpl(eff, len(lk) > 0) == ImplHash && par > 1
	}
	return false
}

// PhysicalDescribe names the physical operator a logical node compiles to
// under the given implementation choice and partitioned-execution degree,
// matching the exec package's operator names (NLJoin, HashSemiJoin,
// MergeNestJoin, "ParHash…[degree]" at degrees >= 2, …). Non-join nodes
// keep their logical description.
func PhysicalDescribe(n algebra.Plan, impl JoinImpl, par int) string {
	switch j := n.(type) {
	case *algebra.Join:
		lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		eff := effectiveJoinImpl(impl, len(lk) > 0)
		if eff == ImplMerge {
			eff = ImplHash // flat joins have no merge variant; Compile uses hash
		}
		return parPrefix(eff, par) + implPrefix(eff) + j.Describe() + parSuffix(eff, par)
	case *algebra.NestJoin:
		lk, _, _ := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
		eff := effectiveJoinImpl(impl, len(lk) > 0)
		return parPrefix(eff, par) + implPrefix(eff) + j.Describe() + parSuffix(eff, par)
	}
	return n.Describe()
}

// parPrefix and parSuffix decorate operators that run partitioned: only the
// hash family parallelizes, at degrees >= 2.
func parPrefix(eff JoinImpl, par int) string {
	if par > 1 && eff == ImplHash {
		return "Par"
	}
	return ""
}

func parSuffix(eff JoinImpl, par int) string {
	if par > 1 && eff == ImplHash {
		return fmt.Sprintf("[%d]", par)
	}
	return ""
}

func effectiveJoinImpl(impl JoinImpl, hashable bool) JoinImpl {
	if !hashable {
		return ImplNestedLoop
	}
	if impl == ImplAuto {
		return ImplHash
	}
	return impl
}

func implPrefix(impl JoinImpl) string {
	switch impl {
	case ImplNestedLoop:
		return "NL"
	case ImplHash:
		return "Hash"
	case ImplMerge:
		return "Merge"
	}
	return ""
}
