package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
)

// TestCompileParallelOperators pins the physical mapping of the Parallelism
// knob: at degree >= 2 hash joins and hash nest joins compile to their
// partitioned forms, nested-loop and merge nest joins stay serial, and
// degree <= 1 changes nothing.
func TestCompileParallelOperators(t *testing.T) {
	_, b := chooseEnv(t)
	ctx := exec.NewCtx(nil)
	nj := equiNestJoinPlan(t, b)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	fj, err := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}

	it, err := New(ctx, Options{Joins: ImplHash, Parallelism: 4}).CompileBatch(fj)
	if err != nil {
		t.Fatal(err)
	}
	if pj, ok := it.(*exec.ParHashJoin); !ok {
		t.Errorf("flat join at par=4 compiled to %T, want *exec.ParHashJoin", it)
	} else if pj.Degree != 4 {
		t.Errorf("ParHashJoin degree = %d, want 4", pj.Degree)
	}

	it, err = New(ctx, Options{Joins: ImplHash, Parallelism: 4}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.ParHashNestJoin); !ok {
		t.Errorf("nest join at par=4 compiled to %T, want *exec.ParHashNestJoin", it)
	}

	it, err = New(ctx, Options{Joins: ImplHash, Parallelism: 1}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rowOperator(it).(*exec.HashNestJoin); !ok {
		t.Errorf("nest join at par=1 compiled to %T, want *exec.HashNestJoin", it)
	}

	it, err = New(ctx, Options{Joins: ImplMerge, Parallelism: 4}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rowOperator(it).(*exec.MergeNestJoin); !ok {
		t.Errorf("merge nest join at par=4 compiled to %T, must stay serial", it)
	}

	it, err = New(ctx, Options{Joins: ImplNestedLoop, Parallelism: 4}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rowOperator(it).(*exec.NLNestJoin); !ok {
		t.Errorf("nested-loop nest join at par=4 compiled to %T, must stay serial", it)
	}
}

// rowOperator unwraps a cold row operator from its RowsToBatch adapter.
func rowOperator(it exec.BatchIterator) exec.Iterator {
	if a, ok := it.(*exec.RowsToBatch); ok {
		return a.It
	}
	return nil
}

// TestEstimateParallelCrossover pins the parallel cost model's shape: at the
// chooseEnv scale (|X|=200, |Y|=800) the partitioned hash nest join must be
// estimated cheaper than serial, while on a tiny instance the startup
// overhead must keep serial cheapest.
func TestEstimateParallelCrossover(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	serial := est.Estimate(plan, ImplHash, 1, AccessScan)
	par4 := est.Estimate(plan, ImplHash, 4, AccessScan)
	if par4.Work >= serial.Work {
		t.Errorf("par=4 should beat serial at this scale: serial=%v par=%v", serial.Work, par4.Work)
	}
	if par4.Rows != serial.Rows {
		t.Error("parallelism must not change cardinality estimates")
	}

	cat, db := datagen.XYZ(datagen.Spec{
		NX: 10, NY: 20, NZ: 10, Keys: 3, DanglingFrac: 0.25, SetAttrCard: 2, Seed: 6,
	})
	tiny := NewEstimator(db)
	tb := algebra.NewBuilder(cat)
	tplan := equiNestJoinPlan(t, tb)
	tserial := tiny.Estimate(tplan, ImplHash, 1, AccessScan)
	tpar := tiny.Estimate(tplan, ImplHash, 8, AccessScan)
	if tpar.Work <= tserial.Work {
		t.Errorf("tiny input: serial must stay cheapest: serial=%v par=%v", tserial.Work, tpar.Work)
	}
}

// TestChooseEnumeratesParallelDegrees checks that Choose adds a degree-par
// candidate for partitionable combinations, picks it when it wins, and that
// the merge nest join (serial-only) is not offered a parallel degree.
func TestChooseEnumeratesParallelDegrees(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	best, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplAuto, 4, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	// nl(1), hash(1), hash(4), merge(1): the merge nest join cannot partition.
	if len(all) != 4 {
		t.Errorf("expected 4 candidates, got %d: %v", len(all), all)
	}
	sawPar := false
	for _, c := range all {
		if c.Par > 1 {
			sawPar = true
			if c.Joins != ImplHash {
				t.Errorf("parallel degree offered for %s", c.Joins)
			}
		}
	}
	if !sawPar {
		t.Error("no parallel candidate enumerated")
	}
	if best.Joins != ImplHash || best.Par != 4 {
		t.Errorf("best = %s par=%d, want hash par=4 at this scale", best.Joins, best.Par)
	}
	// Serial cap: par=1 never enumerates degrees.
	_, all1, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: plan}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(all1) != 3 {
		t.Errorf("par=1 should keep 3 candidates, got %d", len(all1))
	}
}

// TestExplainPhysicalParNames pins the parallel EXPLAIN rendering.
func TestExplainPhysicalParNames(t *testing.T) {
	est, b := chooseEnv(t)
	plan := equiNestJoinPlan(t, b)
	out := est.Explain(plan, ImplHash, 4, AccessScan, 0)
	if !strings.Contains(out, "ParHashNestJoin") || !strings.Contains(out, "[4]") {
		t.Errorf("parallel rendering:\n%s", out)
	}
	serial := est.Explain(plan, ImplHash, 1, AccessScan, 0)
	if strings.Contains(serial, "Par") {
		t.Errorf("serial rendering must not name parallel operators:\n%s", serial)
	}
	// Merge nest joins stay serial even at degree 4.
	if out := est.Explain(plan, ImplMerge, 4, AccessScan, 0); strings.Contains(out, "Par") {
		t.Errorf("merge nest join rendering must stay serial:\n%s", out)
	}
}

// TestCandidateStringRendersDegree checks the EXPLAIN candidate table shows
// the degree a candidate was costed at.
func TestCandidateStringRendersDegree(t *testing.T) {
	c := Candidate{Strategy: "nestjoin", Joins: ImplHash, Par: 4, Cost: Cost{Work: 123}}
	if s := c.String(); !strings.Contains(s, "hash×4") {
		t.Errorf("candidate rendering = %q", s)
	}
	c1 := Candidate{Strategy: "nestjoin", Joins: ImplHash, Par: 1, Cost: Cost{Work: 123}}
	if s := c1.String(); strings.Contains(s, "×1") {
		t.Errorf("serial candidate must not render a degree: %q", s)
	}
}
