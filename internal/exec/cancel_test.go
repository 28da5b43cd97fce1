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
)

// waitGoroutines polls until the goroutine count returns to (roughly) base,
// failing if partitioned-join workers are still alive after the deadline —
// the leak check of the cancellation contract.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancellation: %d at start, %d now", base, runtime.NumGoroutine())
}

// slowPoint arms a 1ms-per-hit delay at the given fault point, making the
// targeted phase take ~1s of wall clock per thousand rows without burning CPU.
func slowPoint(point string) func() {
	return faultinject.Activate(faultinject.Schedule{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Point: point, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
		},
	})
}

// TestParHashJoinCancellation cancels ParHashJoin mid-build and mid-probe at
// degrees 2 and 8: the workers must observe the cancellation, drain, and exit
// without leaking goroutines, Collect must surface ErrCanceled, and an
// identical query afterwards (faults off) must be byte-identical to the
// serial oracle.
func TestParHashJoinCancellation(t *testing.T) {
	l, r := genRows(2000, 13, "k", "v"), genRows(1000, 7, "j", "w")
	serial, _ := parJoinPair(NewCtx(nil), algebra.JoinInner, l, r, nil, 0)
	want := collectBatches(t, serial).String()

	phases := []struct{ name, point string }{
		{"build", faultinject.PointHashBuild},
		{"probe", faultinject.PointHashProbe},
	}
	for _, ph := range phases {
		for _, degree := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", ph.name, degree), func(t *testing.T) {
				base := runtime.NumGoroutine()
				deactivate := slowPoint(ph.point)
				defer deactivate()

				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				gov := NewGovernor(cctx, Limits{})
				ctx := NewCtxGoverned(nil, gov)
				_, par := parJoinPair(ctx, algebra.JoinInner, l, r, nil, degree)

				done := make(chan error, 1)
				go func() {
					_, err := CollectBatchesGoverned(gov, par)
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
					t.Fatal("cancellation did not interrupt the join within 5s")
				}
				deactivate()
				waitGoroutines(t, base)

				_, rerun := parJoinPair(NewCtx(nil), algebra.JoinInner, l, r, nil, degree)
				if got := collectBatches(t, rerun).String(); got != want {
					t.Fatalf("post-cancel rerun diverged from oracle:\nwant %s\ngot  %s", want, got)
				}
			})
		}
	}
}

// TestParHashNestJoinCancellation is the same contract for the parallel nest
// join (build-side and probe-side cancellation at degrees 2 and 8).
func TestParHashNestJoinCancellation(t *testing.T) {
	l, r := genRows(2000, 17, "k", "v"), genRows(1000, 11, "j", "w")
	lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
	fn := pred("y")
	mk := func(ctx *Ctx, degree int) BatchIterator {
		if degree < 2 {
			return &RowsToBatch{It: &HashNestJoin{
				Ctx: ctx, L: rowScan(l), R: rowScan(r),
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Fn: fn, Label: "s",
			}}
		}
		return &ParHashNestJoin{
			Ctx: ctx, L: scan(l), R: scan(r),
			LVar: "x", RVar: "y", LKeys: lk, RKeys: rk, Fn: fn, Label: "s",
			Degree: degree,
		}
	}
	want := collectBatches(t, mk(NewCtx(nil), 0)).String()

	phases := []struct{ name, point string }{
		{"build", faultinject.PointHashBuild},
		{"probe", faultinject.PointHashProbe},
	}
	for _, ph := range phases {
		for _, degree := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", ph.name, degree), func(t *testing.T) {
				base := runtime.NumGoroutine()
				deactivate := slowPoint(ph.point)
				defer deactivate()

				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				gov := NewGovernor(cctx, Limits{})
				ctx := NewCtxGoverned(nil, gov)

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
					t.Fatal("cancellation did not interrupt the nest join within 5s")
				}
				deactivate()
				waitGoroutines(t, base)

				if got := collectBatches(t, mk(NewCtx(nil), degree)).String(); got != want {
					t.Fatalf("post-cancel rerun diverged from oracle:\nwant %s\ngot  %s", want, got)
				}
			})
		}
	}
}

// TestGovernorBudgets pins the budget taxonomy at the exec layer: a row
// budget trips in CollectBatchesGoverned, a build budget trips inside the hash
// build, and both surface as *BudgetError matching ErrBudgetExceeded.
func TestGovernorBudgets(t *testing.T) {
	l, r := genRows(500, 13, "k", "v"), genRows(300, 7, "j", "w")

	gov := NewGovernor(context.Background(), Limits{MaxRows: 5})
	ctx := NewCtxGoverned(nil, gov)
	rowsJoin, _ := parJoinPair(ctx, algebra.JoinInner, l, r, nil, 0)
	_, err := CollectBatchesGoverned(gov, rowsJoin)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("BudgetError must match ErrBudgetExceeded, got %v", err)
	}

	gov = NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
	ctx = NewCtxGoverned(nil, gov)
	serial, _ := parJoinPair(ctx, algebra.JoinInner, l, r, nil, 0)
	_, err = CollectBatchesGoverned(gov, serial)
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}

	gov = NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
	ctx = NewCtxGoverned(nil, gov)
	_, par8 := parJoinPair(ctx, algebra.JoinInner, l, r, nil, 8)
	if _, err = CollectBatchesGoverned(gov, par8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("parallel build must observe the shared build budget, got %v", err)
	}
}

// TestSchedulerPanicPropagates pins the worker panic contract: a panic
// inside a scheduled morsel resurfaces on the calling goroutine (where the
// engine's recover can isolate it) instead of crashing the process from a
// worker, and the pool drains first.
func TestSchedulerPanicPropagates(t *testing.T) {
	l, r := genRows(2000, 13, "k", "v"), genRows(1000, 7, "j", "w")
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 7,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 50},
		},
	})
	defer deactivate()
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("worker panic did not propagate to the caller")
			}
			if _, ok := p.(*faultinject.InjectedPanic); !ok {
				t.Fatalf("propagated panic is %T, want *faultinject.InjectedPanic", p)
			}
		}()
		ctx := NewCtx(nil)
		_, par := parJoinPair(ctx, algebra.JoinInner, l, r, nil, 4)
		_, _ = CollectBatches(par)
	}()
	deactivate()
	waitGoroutines(t, base)
}
