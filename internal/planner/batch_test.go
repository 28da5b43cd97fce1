package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// batchEnv builds a mid-size XYZ instance for compiled-plan equivalence runs.
func batchEnv(t *testing.T) (*algebra.Builder, *exec.Ctx, *Estimator) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 200, NY: 800, NZ: 400, Keys: 25, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 6,
	})
	return algebra.NewBuilder(cat), exec.NewCtx(db), NewEstimator(db)
}

// TestCompileBatchMatchesCompile runs CompileBatch at batch sizes 3 and the
// default against Compile at batch size 1 (the row-at-a-time ablation) on
// every logical operator family, across join implementations and degrees,
// asserting canonical result equality and identical EvalSteps.
func TestCompileBatchMatchesCompile(t *testing.T) {
	b, ctx, _ := batchEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	z, _ := b.Scan("Z")

	plans := map[string]algebra.Plan{}
	j, err := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d AND z.d <= 20"))
	if err != nil {
		t.Fatal(err)
	}
	plans["join-residual"] = j
	sj, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	plans["semijoin"] = sj
	tj, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b < z.d"))
	plans["theta-join"] = tj
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs")
	plans["nestjoin"] = nj
	sel, _ := b.Select(x, "x", tmql.MustParse("x.b <= 12"))
	proj, err := b.Project(sel, "x", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	plans["select-project"] = proj
	u, err := b.SetOp(algebra.SetUnion, x, x)
	if err != nil {
		t.Fatal(err)
	}
	plans["union"] = u
	un, err := b.Unnest(x, "a")
	if err != nil {
		t.Fatal(err)
	}
	plans["unnest"] = un
	nst, err := b.Nest(x, []string{"a"}, "g", false)
	if err != nil {
		t.Fatal(err)
	}
	plans["nest"] = nst

	opts := []Options{
		{},
		{Parallelism: 4},
		{Joins: ImplNestedLoop},
		{Joins: ImplMerge},
	}
	for name, plan := range plans {
		for _, o := range opts {
			// Merge (and pinned hash) is infeasible without an equi-key;
			// every batch size must agree on the error too.
			ro := o
			ro.BatchSize = 1
			rctx := exec.NewCtx(ctx.DB)
			rowIt, rowErr := New(rctx, ro).Compile(plan)
			var want value.Value
			if rowErr == nil {
				if want, err = exec.Collect(rowIt); err != nil {
					t.Fatalf("%s/%+v: row: %v", name, ro, err)
				}
			}
			for _, size := range []int{3, 0} {
				bo := o
				bo.BatchSize = size
				bctx := exec.NewCtx(ctx.DB)
				batIt, batErr := New(bctx, bo).CompileBatch(plan)
				if (rowErr == nil) != (batErr == nil) {
					t.Fatalf("%s/%+v: row err %v, batch err %v", name, bo, rowErr, batErr)
				}
				if rowErr != nil {
					continue
				}
				got, err := exec.CollectBatches(batIt)
				if err != nil {
					t.Fatalf("%s/%+v: batch: %v", name, bo, err)
				}
				if !value.Equal(got, want) {
					t.Errorf("%s/%+v: batch result differs from batch 1:\nwant %s\ngot  %s", name, bo, want, got)
				}
				if bctx.Ev.Steps != rctx.Ev.Steps {
					t.Errorf("%s/%+v: %d eval steps, batch 1 took %d", name, bo, bctx.Ev.Steps, rctx.Ev.Steps)
				}
			}
		}
	}
}

// TestCompileBatchOperatorShapes pins the physical mapping: hash-family flat
// joins are batch-native (serial and partitioned), everything cold comes back
// behind a RowsToBatch adapter.
func TestCompileBatchOperatorShapes(t *testing.T) {
	b, ctx, _ := batchEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	fj, err := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "g")

	it, err := New(ctx, Options{}).CompileBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.BatchTableScan); !ok {
		t.Errorf("scan compiled to %T, want *exec.BatchTableScan", it)
	}
	it, err = New(ctx, Options{}).CompileBatch(fj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.BatchHashJoin); !ok {
		t.Errorf("serial equi join compiled to %T, want *exec.BatchHashJoin", it)
	}
	it, err = New(ctx, Options{Parallelism: 4}).CompileBatch(fj)
	if err != nil {
		t.Fatal(err)
	}
	if pj, ok := it.(*exec.ParHashJoin); !ok {
		t.Errorf("par=4 equi join compiled to %T, want *exec.ParHashJoin", it)
	} else if pj.L == nil || pj.R == nil {
		t.Error("partitioned join should be fed batched inputs directly")
	}
	it, err = New(ctx, Options{Parallelism: 4}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.ParHashNestJoin); !ok {
		t.Errorf("par=4 nest join compiled to %T, want *exec.ParHashNestJoin", it)
	}
	// Serial nest join and nested-loop flat join are cold: row operators
	// behind the adapter.
	it, err = New(ctx, Options{}).CompileBatch(nj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.RowsToBatch); !ok {
		t.Errorf("serial nest join compiled to %T, want adapter-wrapped row operator", it)
	}
	it, err = New(ctx, Options{Joins: ImplNestedLoop}).CompileBatch(fj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*exec.RowsToBatch); !ok {
		t.Errorf("NL join compiled to %T, want adapter-wrapped row operator", it)
	}
}

// TestExplainExecRendersBatch pins the EXPLAIN rendering: batch-native
// operators carry [batch=N], cold ones do not, batch 0 renders the default
// size, and the candidate table carries no batch column.
func TestExplainExecRendersBatch(t *testing.T) {
	b, _, est := batchEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	fj, err := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}
	out := est.Explain(fj, ImplAuto, 1, AccessScan, 64)
	if !strings.Contains(out, "HashJoin[x.b = z.d](x, z)[batch=64]") {
		t.Errorf("no batch annotation on the join:\n%s", out)
	}
	if !strings.Contains(out, "Scan(X)[batch=64]") {
		t.Errorf("scan should be annotated:\n%s", out)
	}
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "g")
	serialNest := est.Explain(nj, ImplHash, 1, AccessScan, 1024)
	for _, line := range strings.Split(serialNest, "\n") {
		if strings.Contains(line, "NestJoin") && strings.Contains(line, "[batch=") {
			t.Errorf("serial hash nest join is a row operator, must not be annotated:\n%s", serialNest)
		}
	}
	if got, want := est.Explain(fj, ImplAuto, 4, AccessScan, 0), est.Explain(fj, ImplAuto, 4, AccessScan, exec.DefaultBatchSize); got != want {
		t.Errorf("batch=0 must render the default size:\ndefault:\n%s\nbatch=0:\n%s", want, got)
	}

	c := Candidate{Strategy: "flat", Joins: ImplHash, Par: 4, Batch: 1024, Cost: Cost{Work: 9}}
	if s := c.String(); !strings.Contains(s, "hash×4 ") || strings.Contains(s, "+b") {
		t.Errorf("candidate rendering = %q", s)
	}
}
