package enginetest

import (
	"fmt"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/value"
)

// BatchSizes is the set of batch sizes the harness exercises: single-row
// batches (the row-at-a-time ablation: every per-batch boundary crossed per
// row), a mid-size, and the default capacity.
func BatchSizes() []int { return []int{1, 64, 1024} }

// TestConformanceBatchDeterminism executes every golden query under every
// strategy at every batch size and at degrees 1, 2 and 8, and asserts that
// results are bit-identical to the batch-1 serial run — not just set-equal
// but byte-equal under the canonical value encoding — and that EvalSteps
// are identical too: compiled row programs count the steps the evaluator
// would, so the work measure depends on neither batch size nor degree.
func TestConformanceBatchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy × batch × degree matrix; run without -short (CI's dedicated enginetest race job covers it)")
	}
	for _, g := range Goldens {
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			for _, s := range Strategies() {
				ref, err := eng.Query(g.Query, engine.Options{Strategy: s, Parallelism: 1, BatchSize: 1})
				if err != nil {
					if !SkippableError(err) {
						t.Errorf("%s batch=1: %v", s, err)
					}
					continue
				}
				refKey := value.Key(ref.Value)
				for _, par := range []int{1, 2, 8} {
					for _, size := range BatchSizes() {
						name := fmt.Sprintf("%s×par=%d×batch=%d", s, par, size)
						res, err := eng.Query(g.Query, engine.Options{Strategy: s, Parallelism: par, BatchSize: size})
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if got := value.Key(res.Value); got != refKey {
							lost := value.Diff(ref.Value, res.Value)
							extra := value.Diff(res.Value, ref.Value)
							t.Errorf("%s: result not bit-identical to batch 1 (lost %d, extra %d)",
								name, lost.Len(), extra.Len())
						}
						if res.EvalSteps != ref.EvalSteps {
							t.Errorf("%s: %d eval steps, batch 1 serial took %d", name, res.EvalSteps, ref.EvalSteps)
						}
						if res.Batch != size {
							t.Errorf("%s: Result.Batch = %d, want %d", name, res.Batch, size)
						}
					}
				}
			}
		})
	}
}

// TestConformanceBatchExplain asserts EXPLAIN carries the batch size the
// plan executes at in its header for golden queries: the pinned size, the
// default for 0, and 1 for a negative size.
func TestConformanceBatchExplain(t *testing.T) {
	for _, g := range Goldens {
		eng := OpenDB(g.DB)
		for _, tc := range []struct{ size, want int }{{256, 256}, {0, exec.DefaultBatchSize}, {-1, 1}} {
			out, err := eng.Explain(g.Query, engine.Options{BatchSize: tc.size})
			if err != nil {
				t.Errorf("%s: Explain: %v", g.Name, err)
				continue
			}
			if !contains(out, fmt.Sprintf("batch=%d (", tc.want)) {
				t.Errorf("%s: EXPLAIN at BatchSize %d misses batch=%d:\n%s", g.Name, tc.size, tc.want, out)
			}
		}
	}
}

// FuzzBatchMatchesRow is the vectorized-determinism property: over generated
// XYZ schemas and every fuzz query shape, executing at batch sizes 1, 64,
// and 1024 — serially and partitioned — must produce results bit-identical
// to the batch-1 row-at-a-time ablation (BatchSize -1), under both the auto
// planner and the paper's fixed nest-join strategy.
func FuzzBatchMatchesRow(f *testing.F) {
	for qi := range fuzzQueries {
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi))
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(0))
	f.Add(uint8(47), uint8(95), uint8(11), uint8(50), int64(5), uint8(4))

	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng := engine.New(cat, db)
		q := fuzzQueries[int(qi)%len(fuzzQueries)]
		for _, s := range []core.Strategy{core.StrategyAuto, core.StrategyNestJoin} {
			for _, par := range []int{1, 4} {
				row, err := eng.Query(q, engine.Options{Strategy: s, Parallelism: par, BatchSize: -1})
				if err != nil {
					t.Fatalf("%s par=%d row: %v", s, par, err)
				}
				want := value.Key(row.Value)
				for _, size := range BatchSizes() {
					res, err := eng.Query(q, engine.Options{Strategy: s, Parallelism: par, BatchSize: size})
					if err != nil {
						t.Fatalf("%s par=%d batch=%d: %v", s, par, size, err)
					}
					if value.Key(res.Value) != want {
						t.Fatalf("%s par=%d batch=%d differs from batch 1 on spec %+v:\nquery: %s",
							s, par, size, spec, q)
					}
				}
			}
		}
	})
}
