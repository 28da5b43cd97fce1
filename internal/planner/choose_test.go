package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/tmql"
)

// chooseEnv builds an estimator over a mid-size XYZ instance where the hash
// family clearly beats nested loops.
func chooseEnv(t *testing.T) (*Estimator, *algebra.Builder) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 200, NY: 800, NZ: 400, Keys: 25, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 6,
	})
	return NewEstimator(db), algebra.NewBuilder(cat)
}

func equiNestJoinPlan(t *testing.T, b *algebra.Builder) algebra.Plan {
	t.Helper()
	x, err := b.Scan("X")
	if err != nil {
		t.Fatal(err)
	}
	y, err := b.Scan("Y")
	if err != nil {
		t.Fatal(err)
	}
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "g")
	if err != nil {
		t.Fatal(err)
	}
	return nj
}

func thetaJoinPlan(t *testing.T, b *algebra.Builder) algebra.Plan {
	t.Helper()
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	j, err := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b < z.d"))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestChoosePicksHashOnEquiPlan(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	best, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Joins != ImplHash {
		t.Errorf("chose %s, want hash; candidates: %v", best.Joins, all)
	}
	if len(all) != 3 {
		t.Errorf("expected 3 join-impl candidates, got %d", len(all))
	}
	if !best.Chosen {
		t.Error("winning candidate not marked Chosen")
	}
}

func TestChoosePrefersFlatStrategyOverNaive(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	naive, err := b.EvalSet(tmql.MustParse("SELECT x FROM X x WHERE x.b IN SELECT y.b FROM Y y WHERE x.b = y.b"))
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := est.Choose([]StrategyPlan{
		{Strategy: "naive", Plan: naive},
		{Strategy: "nestjoin", Plan: plan},
	}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != "nestjoin" {
		t.Errorf("chose %s; naive nested-loop evaluation must cost more than flattening", best.Strategy)
	}
}

func TestChooseRespectsFixedImpl(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	best, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplMerge, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Joins != ImplMerge || len(all) != 1 {
		t.Errorf("fixed impl not respected: best=%s candidates=%d", best.Joins, len(all))
	}
}

func TestChooseInfeasibleHashOnThetaJoin(t *testing.T) {
	est, b := chooseEnv(t)
	plan := thetaJoinPlan(t, b)
	// Fixed hash on a theta join: nothing feasible.
	_, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplHash, 1, AccessAuto)
	if err == nil {
		t.Fatal("expected no-feasible-candidate error")
	}
	if len(all) != 1 || all[0].Infeasible == "" {
		t.Errorf("candidates = %+v", all)
	}
	// Auto enumeration still works: nested loops carries it.
	best, _, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Joins != ImplNestedLoop {
		t.Errorf("theta join must fall to nested loops, chose %s", best.Joins)
	}
}

func TestChooseCollapsesImplsWithoutJoins(t *testing.T) {
	est, b := chooseEnv(t)
	x, _ := b.Scan("X")
	sel, err := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: sel}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("join-free plan should yield one candidate, got %d", len(all))
	}
}

func TestImplInfeasible(t *testing.T) {
	est, b := chooseEnv(t)
	_ = est
	theta := thetaJoinPlan(t, b)
	equi := equiNestJoinPlan(t, b)
	if r := ImplInfeasible(theta, ImplHash); !strings.Contains(r, "no equi-key") {
		t.Errorf("ImplInfeasible(theta, hash) = %q", r)
	}
	if r := ImplInfeasible(theta, ImplNestedLoop); r != "" {
		t.Errorf("nested loop always feasible, got %q", r)
	}
	if r := ImplInfeasible(equi, ImplMerge); r != "" {
		t.Errorf("equi plan feasible under merge, got %q", r)
	}
}

func TestExplainPhysicalNames(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	hash := est.Explain(plan, ImplHash, 1, AccessScan, 0)
	if !strings.Contains(hash, "HashNestJoin") || !strings.Contains(hash, "rows≈") {
		t.Errorf("hash rendering:\n%s", hash)
	}
	nl := est.Explain(plan, ImplNestedLoop, 1, AccessScan, 0)
	if !strings.Contains(nl, "NLNestJoin") {
		t.Errorf("nl rendering:\n%s", nl)
	}
	merge := est.Explain(plan, ImplMerge, 1, AccessScan, 0)
	if !strings.Contains(merge, "MergeNestJoin") {
		t.Errorf("merge rendering:\n%s", merge)
	}
	// Flat joins have no merge variant: rendered as the hash fallback.
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if out := est.Explain(j, ImplMerge, 1, AccessScan, 0); !strings.Contains(out, "HashSemiJoin") {
		t.Errorf("flat merge fallback rendering:\n%s", out)
	}
}

func TestEvalCostScalesWithTables(t *testing.T) {
	est, b := chooseEnv(t)
	small, err := b.EvalSet(tmql.MustParse("SELECT z FROM Z z"))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := b.EvalSet(tmql.MustParse(
		"SELECT x FROM X x WHERE x.b IN SELECT y.b FROM Y y WHERE x.b = y.b"))
	if err != nil {
		t.Fatal(err)
	}
	cs, cn := est.Estimate(small, ImplAuto, 1, AccessScan), est.Estimate(nested, ImplAuto, 1, AccessScan)
	if cs.Work >= cn.Work {
		t.Errorf("correlated nested query must cost more: flat=%v nested=%v", cs, cn)
	}
	// The nested estimate must reflect the |X|·|Y| blowup.
	if cn.Work < 100*400 {
		t.Errorf("nested naive estimate too low: %v", cn)
	}
}

func TestEstimatePhysicalOrdering(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	nl := est.Estimate(plan, ImplNestedLoop, 1, AccessScan)
	hash := est.Estimate(plan, ImplHash, 1, AccessScan)
	merge := est.Estimate(plan, ImplMerge, 1, AccessScan)
	if !(hash.Work < merge.Work && merge.Work < nl.Work) {
		t.Errorf("expected hash < merge < nl at this scale: hash=%v merge=%v nl=%v",
			hash.Work, merge.Work, nl.Work)
	}
	if nl.Rows != hash.Rows || nl.Rows != merge.Rows {
		t.Error("implementation choice must not change cardinality estimates")
	}
}
