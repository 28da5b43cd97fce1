package exec

import (
	"fmt"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// genRows builds n tuples (<key> = i % keys, <val> = i) — enough rows to
// cross the minParallelRows inline threshold when n is large. Labels differ
// per side so inner-join concatenation has disjoint labels.
func genRows(n, keys int, key, val string) []value.Value {
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		out[i] = tup(key, i%keys, val, i)
	}
	return out
}

func parJoinPair(ctx *Ctx, kind algebra.JoinKind, l, r []value.Value, residual tmql.Expr, degree int) (serial, par BatchIterator) {
	lk := []tmql.Expr{pred("x.k")}
	rk := []tmql.Expr{pred("y.j")}
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	serial = &BatchHashJoin{
		Ctx: ctx, Kind: kind, L: scan(l), R: scan(r),
		LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Residual: residual, RElem: relem,
	}
	par = &ParHashJoin{
		Ctx: ctx, Kind: kind, L: scan(l), R: scan(r),
		LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Residual: residual, RElem: relem,
		Degree: degree,
	}
	return serial, par
}

// TestParHashJoinMatchesSerial runs every flat join kind, with and without a
// residual, at several degrees and sizes (straddling the inline threshold),
// asserting the parallel operator's canonical result equals the serial one.
func TestParHashJoinMatchesSerial(t *testing.T) {
	residuals := map[string]tmql.Expr{"nil": nil, "resid": pred("x.v <= y.w + 250")}
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		for rname, residual := range residuals {
			for _, n := range []int{0, 7, 500} {
				// Dangling left rows: left keys range over 13, right over 7.
				l, r := genRows(n, 13, "k", "v"), genRows(n/2, 7, "j", "w")
				for _, degree := range []int{2, 3, 8} {
					name := fmt.Sprintf("%s/%s/n=%d/p=%d", kind, rname, n, degree)
					ctx := NewCtx(nil)
					serial, par := parJoinPair(ctx, kind, l, r, residual, degree)
					want := collectBatches(t, serial)
					got := collectBatches(t, par)
					if !value.Equal(got, want) {
						t.Errorf("%s: parallel result differs from serial:\nwant %s\ngot  %s", name, want, got)
					}
				}
			}
		}
	}
}

// TestParHashJoinStepsMatchSerial pins the step accounting: the partitioned
// plan performs exactly the same expression evaluations as the serial one
// (keys once per row, residual once per candidate), just sharded per worker
// — whether the residual runs compiled (serially) or generic (in workers).
func TestParHashJoinStepsMatchSerial(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(300, 7, "j", "w")
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi} {
		for _, residual := range []string{"x.v <= y.w + 250", "x.v <= y.w"} {
			sctx, pctx := NewCtx(nil), NewCtx(nil)
			serial, _ := parJoinPair(sctx, kind, l, r, pred(residual), 0)
			_, par := parJoinPair(pctx, kind, l, r, pred(residual), 4)
			collectBatches(t, serial)
			collectBatches(t, par)
			if sctx.Ev.Steps != pctx.Ev.Steps {
				t.Errorf("%s/%s: serial performed %d eval steps, parallel %d", kind, residual, sctx.Ev.Steps, pctx.Ev.Steps)
			}
			if pctx.Ev.Steps == 0 {
				t.Errorf("%s/%s: parallel run reported zero eval steps", kind, residual)
			}
		}
	}
}

// TestParHashNestJoinMatchesSerial compares the parallel nest join against
// the serial hash nest join on the Table 1 example and larger generated data.
func TestParHashNestJoinMatchesSerial(t *testing.T) {
	type dataset struct {
		name string
		l, r []value.Value
	}
	x, y := xyRows()
	sets := []dataset{
		{"table1", x, y},
		{"generated", genRows(600, 17, "k", "v"), genRows(900, 11, "j", "w")},
	}
	for _, ds := range sets {
		lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
		fn := pred("y")
		if ds.name == "table1" {
			lk, rk = []tmql.Expr{pred("x.d")}, []tmql.Expr{pred("y.b")}
		}
		ctx := NewCtx(nil)
		serial := &HashNestJoin{
			Ctx: ctx, L: rowScan(ds.l), R: rowScan(ds.r),
			LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Fn: fn, Label: "s",
		}
		want := collect(t, serial)
		for _, degree := range []int{2, 8} {
			par := &ParHashNestJoin{
				Ctx: NewCtx(nil), L: scan(ds.l), R: scan(ds.r),
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Fn: fn, Label: "s",
				Degree: degree,
			}
			got := collectBatches(t, par)
			if !value.Equal(got, want) {
				t.Errorf("%s/p=%d: parallel nest join differs from serial:\nwant %s\ngot  %s",
					ds.name, degree, want, got)
			}
		}
	}
}

// TestParHashJoinErrors pins the failure modes: degree < 2, missing keys,
// and a worker-side evaluation error must surface deterministically.
func TestParHashJoinErrors(t *testing.T) {
	l, r := genRows(300, 5, "k", "v"), genRows(300, 5, "j", "w")
	ctx := NewCtx(nil)
	_, par := parJoinPair(ctx, algebra.JoinInner, l, r, nil, 1)
	if err := par.Open(); err == nil {
		t.Error("Degree=1 should be rejected")
	}
	bad := &ParHashJoin{
		Ctx: NewCtx(nil), Kind: algebra.JoinInner,
		L: scan(l), R: scan(r), LVar: "x", RVar: "y", Degree: 2,
	}
	if err := bad.Open(); err == nil {
		t.Error("empty key lists should be rejected")
	}
	// Residual referencing a missing field fails inside workers; the error
	// must propagate out of Collect.
	_, evalErr := parJoinPair(NewCtx(nil), algebra.JoinInner, l, r, pred("x.missing = y.w"), 4)
	if _, err := CollectBatches(evalErr); err == nil {
		t.Error("worker evaluation error did not propagate")
	}
}

// TestPartitionInputRouting checks the exchange invariant directly: equal
// keys land in the same partition, every row lands somewhere, and the row
// total is preserved at any producer count.
func TestPartitionInputRouting(t *testing.T) {
	rows := genRows(1000, 23, "k", "v")
	for _, nparts := range []int{2, 5, 8} {
		ctx := NewCtx(nil)
		s := NewScheduler(SchedConfig{Workers: nparts})
		ps, err := partitionInput(ctx, s, scan(rows), []tmql.Expr{pred("x.k")}, "x", nparts)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Ev.Steps <= 0 {
			t.Error("partitioning reported no eval steps")
		}
		total := 0
		keyPart := map[string]int{}
		for p := 0; p < nparts; p++ {
			total += ps.rowCount(p)
			ps.each(p, func(v value.Value, key []byte) error {
				if prev, seen := keyPart[string(key)]; seen && prev != p {
					t.Fatalf("key %x routed to partitions %d and %d", key, prev, p)
				}
				keyPart[string(key)] = p
				return nil
			})
		}
		if total != len(rows) {
			t.Errorf("nparts=%d: %d rows in, %d rows across partitions", nparts, len(rows), total)
		}
		if len(keyPart) != 23 {
			t.Errorf("nparts=%d: expected 23 distinct keys, saw %d", nparts, len(keyPart))
		}
	}
}
