package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func collectBatches(t *testing.T, it BatchIterator) value.Value {
	t.Helper()
	v, err := CollectBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// batchSizes straddles the interesting boundaries: single-row batches, a
// partial final batch, and the default.
var batchSizes = []int{1, 3, 64, DefaultBatchSize}

// TestAdaptersRoundTrip checks batches → rows → batches → rows preserves
// content and order at every batch size.
func TestAdaptersRoundTrip(t *testing.T) {
	rows := genRows(257, 13, "k", "v")
	for _, size := range batchSizes {
		in := &BatchToRows{In: &BatchSliceScan{Rows: rows, Size: size}}
		got, err := Drain(&BatchToRows{In: &RowsToBatch{It: in, Size: size}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("size=%d: %d rows out, want %d", size, len(got), len(rows))
		}
		for i := range rows {
			if !value.Equal(got[i], rows[i]) {
				t.Fatalf("size=%d: row %d differs", size, i)
			}
		}
	}
}

// evalPipeline is the evaluator's reading of scan → filter → map → distinct:
// the result set and the EvalSteps it takes.
func evalPipeline(t *testing.T, rows []value.Value, p, out tmql.Expr) (value.Value, int64) {
	t.Helper()
	ev := eval.New(nil)
	b := value.NewSetBuilder(0)
	for _, r := range rows {
		env := env1("x", r)
		keep, err := ev.EvalEnv(p, env)
		if err != nil {
			t.Fatal(err)
		}
		if !keep.AsBool() {
			continue
		}
		o, err := ev.EvalEnv(out, env)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(o)
	}
	return b.Build(), ev.Steps
}

// TestBatchPipelineMatchesRow runs scan → filter → map → distinct at every
// batch size (1 is the row-at-a-time ablation), with predicates and
// projections inside and outside the compiled subset, asserting canonical
// equality with the evaluator and the evaluator's exact EvalSteps.
func TestBatchPipelineMatchesRow(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	cases := []struct {
		name string
		pred string // filter over x
		out  string // projection over x
	}{
		// Compiled: comparisons and field selections only.
		{"compiled", "x.k <= 11", "(a = x.k, b = x.v)"},
		// Conjunction still compiled (and short-circuits); projection a bare
		// scalar.
		{"compiled-and", "x.k <= 11 and x.v >= 20", "x.k"},
		{"compiled-or", "x.k <= 3 or x.v >= 450", "x"},
		// Arithmetic forces the generic fallback.
		{"generic", "x.v % 3 = 0", "(m = x.v * 2)"},
	}
	for _, tc := range cases {
		want, wantSteps := evalPipeline(t, rows, pred(tc.pred), pred(tc.out))
		for _, size := range batchSizes {
			bctx := NewCtx(nil)
			bat := &BatchDistinct{Ctx: bctx, In: &BatchMap{Ctx: bctx, In: &BatchFilter{
				Ctx: bctx, In: &BatchSliceScan{Rows: rows, Size: size}, Var: "x", Pred: pred(tc.pred)},
				Var: "x", Out: pred(tc.out)}}
			got := collectBatches(t, bat)
			if !value.Equal(got, want) {
				t.Errorf("%s/size=%d: batch differs from the evaluator:\nwant %s\ngot  %s", tc.name, size, want, got)
			}
			if bctx.Ev.Steps != wantSteps {
				t.Errorf("%s/size=%d: %d eval steps, the evaluator takes %d", tc.name, size, bctx.Ev.Steps, wantSteps)
			}
		}
	}
}

// TestBatchHashJoinMatchesRow runs every flat join kind, with and without
// residuals (compiled and generic), at every batch size, against the
// nested-loop join over the full predicate; EvalSteps must not depend on
// the batch size.
func TestBatchHashJoinMatchesRow(t *testing.T) {
	residuals := map[string]tmql.Expr{
		"nil": nil,
		// In the compiled subset: field-vs-field comparison.
		"compiled": pred("x.v <= y.w"),
		// Arithmetic forces generic residual evaluation.
		"generic": pred("x.v <= y.w + 250"),
	}
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		for rname, residual := range residuals {
			for _, n := range []int{0, 7, 500} {
				l, r := genRows(n, 13, "k", "v"), genRows(n/2, 7, "j", "w")
				full := pred("x.k = y.j")
				if residual != nil {
					full = tmql.JoinAnd([]tmql.Expr{full, residual})
				}
				nl := &NLJoin{
					Ctx: NewCtx(nil), Kind: kind, L: rowScan(l), R: rowScan(r),
					LVar: "x", RVar: "y", Pred: full, RElem: relem,
				}
				want := collect(t, nl)
				var steps int64 = -1
				for _, size := range batchSizes {
					name := fmt.Sprintf("%s/%s/n=%d/size=%d", kind, rname, n, size)
					bctx := NewCtx(nil)
					bj := &BatchHashJoin{
						Ctx: bctx, Kind: kind,
						L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
						LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
						Residual: residual, RElem: relem,
					}
					got := collectBatches(t, bj)
					if !value.Equal(got, want) {
						t.Errorf("%s: batch join differs from the NL join:\nwant %s\ngot  %s", name, want, got)
					}
					if steps >= 0 && bctx.Ev.Steps != steps {
						t.Errorf("%s: %d eval steps, size %d took %d", name, bctx.Ev.Steps, batchSizes[0], steps)
					}
					steps = bctx.Ev.Steps
				}
			}
		}
	}
}

// TestParHashJoinBatchedInputs streams the partitioned join's output via
// NextBatch at every batch size, asserting equality with the serial join.
func TestParHashJoinBatchedInputs(t *testing.T) {
	l, r := genRows(600, 13, "k", "v"), genRows(300, 7, "j", "w")
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	serial := &BatchHashJoin{
		Ctx: NewCtx(nil), Kind: algebra.JoinInner, L: scan(l), R: scan(r),
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
		RElem: relem,
	}
	want := collectBatches(t, serial)
	for _, size := range batchSizes {
		for _, degree := range []int{2, 4} {
			par := &ParHashJoin{
				Ctx: NewCtx(nil), Kind: algebra.JoinInner,
				L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
				RElem: relem, Degree: degree, BatchSize: size,
			}
			got := collectBatches(t, par)
			if !value.Equal(got, want) {
				t.Errorf("size=%d/p=%d: batched parallel join differs:\nwant %s\ngot  %s", size, degree, want, got)
			}
		}
	}
}

// TestCompiledPredicateErrorsMatchGeneric pins error parity: a predicate
// whose field selection fails must produce the evaluator's exact error
// whether it ran compiled or generic.
func TestCompiledPredicateErrorsMatchGeneric(t *testing.T) {
	rows := []value.Value{tup("k", 1, "v", 2)}
	_, rowErr := eval.New(nil).EvalEnv(pred("x.missing = 1"), env1("x", rows[0]))
	batIt := &BatchFilter{Ctx: NewCtx(nil), In: &BatchSliceScan{Rows: rows}, Var: "x", Pred: pred("x.missing = 1")}
	_, batErr := CollectBatches(batIt)
	if rowErr == nil || batErr == nil {
		t.Fatalf("expected errors, got row=%v batch=%v", rowErr, batErr)
	}
	if rowErr.Error() != batErr.Error() {
		t.Errorf("error mismatch:\nrow   %v\nbatch %v", rowErr, batErr)
	}
}

// TestBatchDistinctIdentity checks BatchDistinct's encoding-based dedup
// agrees with value.Key identity on values of every kind, keeping the
// first-seen row of each.
func TestBatchDistinctIdentity(t *testing.T) {
	rows := []value.Value{
		value.Int(1), value.Float(1), // ints normalize to floats in both identities
		value.Int(2), value.Str("2"),
		tup("a", 1, "b", 2), tup("b", 2, "a", 1), // label-sorted: equal tuples
		value.SetOf(value.Int(1), value.Int(2)), value.SetOf(value.Int(2), value.Int(1)),
	}
	var want []value.Value
	seen := map[string]bool{}
	for _, v := range rows {
		if k := value.Key(v); !seen[k] {
			seen[k] = true
			want = append(want, v)
		}
	}
	got, err := DrainBatches(&BatchDistinct{Ctx: NewCtx(nil), In: &BatchSliceScan{Rows: rows, Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("distinct kept %d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if value.Key(got[i]) != value.Key(want[i]) {
			t.Errorf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// TestSortBatchBuildMatchesRow builds a sorted run at every batch size and
// asserts the sequence — not just the set — is byte-identical to the
// batch-1 (row-at-a-time) build's.
func TestSortBatchBuildMatchesRow(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	keys := []tmql.Expr{pred("x.k")}
	want, err := drainSortedBatches(NewCtx(nil), &BatchSliceScan{Rows: rows, Size: 1}, "x", keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range batchSizes {
		got, err := drainSortedBatches(NewCtx(nil), &BatchSliceScan{Rows: rows, Size: size}, "x", keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("size=%d: %d rows out, want %d", size, len(got), len(want))
		}
		for i := range want {
			if value.Key(got[i].v) != value.Key(want[i].v) {
				t.Fatalf("size=%d: row %d differs from the batch-1 build", size, i)
			}
		}
	}
}

// TestSortBatchBuildBudget pins the sorted-run build's governance: the flat
// per-row build charge is accounted (summed per batch), so a build budget
// trips.
func TestSortBatchBuildBudget(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
	ctx := NewCtxGoverned(nil, gov)
	_, err := drainSortedBatches(ctx, &BatchSliceScan{Rows: rows, Size: 64}, "x", []tmql.Expr{pred("x.k")})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
}

// TestMergeNestJoinBatchedInputs builds the merge nest join's sorted runs
// at every batch size and asserts byte-identity with the nested-loop nest
// join over the full predicate, with and without a residual.
func TestMergeNestJoinBatchedInputs(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(200, 7, "j", "w")
	lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
	for rname, residual := range map[string]tmql.Expr{"nil": nil, "residual": pred("x.v <= y.w")} {
		full := pred("x.k = y.j")
		if residual != nil {
			full = tmql.JoinAnd([]tmql.Expr{full, residual})
		}
		want := collect(t, &NLNestJoin{
			Ctx: NewCtx(nil), L: rowScan(l), R: rowScan(r),
			LVar: "x", RVar: "y", Pred: full, Fn: pred("y"), Label: "g",
		})
		for _, size := range batchSizes {
			got := collect(t, &MergeNestJoin{
				Ctx: NewCtx(nil), L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
				Residual: residual, Fn: pred("y"), Label: "g",
			})
			if value.Key(got) != value.Key(want) {
				t.Errorf("%s/size=%d: merge nest join differs from NL:\nwant %s\ngot  %s", rname, size, want, got)
			}
		}
	}
}
