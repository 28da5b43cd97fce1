package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// skewRows builds n rows where ~90% share join key 0 and the rest spread
// over keys 1..9, so one hash partition carries almost all the join work —
// the workload the scheduler's stealing exists for.
func skewRows(n int, key, val string) []value.Value {
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		k := 0
		if i%10 == 9 {
			k = 1 + i%9
		}
		out[i] = tup(key, k, val, i)
	}
	return out
}

// TestSchedulerStealsUnderSkew pins the tentpole's load-balancing claim: with
// 90% of rows in one partition, idle workers steal the hot partition's probe
// morsels (nonzero steal counter), with stealing disabled every morsel runs on
// its home worker (zero steal counter), and either way the result is
// byte-identical to the serial oracle at degrees 2 and 8.
func TestSchedulerStealsUnderSkew(t *testing.T) {
	l, r := skewRows(2000, "k", "v"), skewRows(1000, "j", "w")
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	mk := func(ctx *Ctx, degree int) BatchIterator {
		if degree < 2 {
			return &BatchHashJoin{
				Ctx: ctx, Kind: algebra.JoinSemi, L: &BatchSliceScan{Rows: l, Size: 64}, R: &BatchSliceScan{Rows: r, Size: 64},
				LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
				RElem: relem,
			}
		}
		return &ParHashJoin{
			Ctx: ctx, Kind: algebra.JoinSemi, L: &BatchSliceScan{Rows: l, Size: 64}, R: &BatchSliceScan{Rows: r, Size: 64},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
			RElem: relem, Degree: degree, BatchSize: 64,
		}
	}
	want := value.Key(collectBatches(t, mk(NewCtx(nil), 0)))

	for _, degree := range []int{2, 8} {
		t.Run(fmt.Sprintf("steal/p=%d", degree), func(t *testing.T) {
			// Hold every morsel for 1ms at the scheduler's gate: the home
			// worker cannot drain its deque before the idle workers come up,
			// so steals happen on every run, not just on lucky schedules.
			deactivate := slowPoint(faultinject.PointSchedMorsel)
			defer deactivate()
			ctx := NewCtx(nil)
			ctx.Sched = NewScheduler(SchedConfig{Workers: degree, MorselSize: 64})
			got := value.Key(collectBatches(t, mk(ctx, degree)))
			if got != want {
				t.Fatalf("p=%d: skewed parallel result not byte-identical to serial", degree)
			}
			stats := ctx.Sched.Stats()
			if stats.Dispatched == 0 {
				t.Fatal("scheduler reported zero dispatched morsels")
			}
			if stats.Stolen == 0 {
				t.Errorf("no morsels stolen under 90/10 skew (dispatched %d)", stats.Dispatched)
			}
		})
		t.Run(fmt.Sprintf("nosteal/p=%d", degree), func(t *testing.T) {
			ctx := NewCtx(nil)
			ctx.Sched = NewScheduler(SchedConfig{Workers: degree, MorselSize: 64, NoSteal: true})
			got := value.Key(collectBatches(t, mk(ctx, degree)))
			if got != want {
				t.Fatalf("p=%d: NoSteal result not byte-identical to serial", degree)
			}
			if stolen := ctx.Sched.Stats().Stolen; stolen != 0 {
				t.Errorf("NoSteal scheduler stole %d morsels", stolen)
			}
		})
	}
}

// TestSchedulerSkewCancellationMidSteal cancels the skewed join while morsels
// are being stolen (every morsel held 1ms at the scheduler gate): the pool
// must drain without leaking goroutines, Collect must surface ErrCanceled,
// and a rerun with faults off must be byte-identical to the serial oracle.
func TestSchedulerSkewCancellationMidSteal(t *testing.T) {
	l, r := skewRows(2000, "k", "v"), skewRows(1000, "j", "w")
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	mk := func(ctx *Ctx, degree int) *ParHashJoin {
		return &ParHashJoin{
			Ctx: ctx, Kind: algebra.JoinSemi, L: &BatchSliceScan{Rows: l, Size: 64}, R: &BatchSliceScan{Rows: r, Size: 64},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
			RElem: relem, Degree: degree, BatchSize: 64,
		}
	}
	serial := &BatchHashJoin{
		Ctx: NewCtx(nil), Kind: algebra.JoinSemi, L: &BatchSliceScan{Rows: l, Size: 64}, R: &BatchSliceScan{Rows: r, Size: 64},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
		RElem: relem,
	}
	want := value.Key(collectBatches(t, serial))

	for _, degree := range []int{2, 8} {
		t.Run(fmt.Sprintf("p=%d", degree), func(t *testing.T) {
			base := runtime.NumGoroutine()
			deactivate := slowPoint(faultinject.PointSchedMorsel)
			defer deactivate()

			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gov := NewGovernor(cctx, Limits{})
			ctx := NewCtxGoverned(nil, gov)
			ctx.Sched = NewScheduler(SchedConfig{Workers: degree, MorselSize: 64})

			done := make(chan error, 1)
			go func() {
				_, err := CollectBatchesGoverned(gov, mk(ctx, degree))
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancellation did not interrupt the skewed join within 5s")
			}
			deactivate()
			waitGoroutines(t, base)

			rctx := NewCtx(nil)
			rctx.Sched = NewScheduler(SchedConfig{Workers: degree, MorselSize: 64})
			if got := value.Key(collectBatches(t, mk(rctx, degree))); got != want {
				t.Fatalf("post-cancel rerun diverged from serial oracle")
			}
		})
	}
}
