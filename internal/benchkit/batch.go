package benchkit

import (
	"fmt"
	"io"

	"tmdb/internal/datagen"
	"tmdb/internal/engine"
)

// B9: the vectorized batch pipeline. The B1–B8 experiments compare logical
// strategies, join implementations, and access paths; B9 holds the plan
// fixed — one scan→filter→hash-join→project shape — and varies only the
// batch size: 1 (the row-at-a-time ablation: one row per operator call and
// per governor poll), fixed sizes, and the default. The gap is per-batch
// interface dispatch plus governor polling, which is what wider batches
// amortize.

// MeasureBatch executes the query serially at an explicit batch size (n < 0
// = 1, 0 = the default, n > 0 = batches of n), repeating reps times and
// keeping the minimum duration.
func MeasureBatch(eng *engine.Engine, q string, batch, reps int) Run {
	if reps < 1 {
		reps = 1
	}
	out := Run{}
	for i := 0; i < reps; i++ {
		res, err := eng.Query(q, engine.Options{Parallelism: 1, BatchSize: batch})
		if err != nil {
			out.Err = err
			return out
		}
		if i == 0 || res.Duration < out.Duration {
			out.Duration = res.Duration
			out.Steps = res.EvalSteps
		}
		out.Value = res.Value
		out.Batch = res.Batch
	}
	return out
}

// RunB9 measures the vectorized batch pipeline: scan→filter→hash-join→
// project at n=2000 at batch sizes 1, 64, 256, 1024 and the default, with
// every variant checked byte-identical to the batch-1 run and reporting the
// same EvalSteps.
func RunB9(w io.Writer, quick bool) error {
	n := 2000
	if quick {
		n = 200
	}
	// Keys = n keeps the join selective, so the pipeline's cost sits in the
	// scans, filters, and probes — the loops batching tightens — rather than
	// in materializing a large duplicate-heavy output.
	cat, db := datagen.XYZ(datagen.Spec{
		NX: n, NY: n, NZ: 0, Keys: n, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 7,
	})
	eng := engine.New(cat, db)
	q := `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`

	one := MeasureBatch(eng, q, 1, 7)
	if one.Err != nil {
		return fmt.Errorf("B9 batch=1: %w", one.Err)
	}
	out := Table{
		Title:   fmt.Sprintf("B9: vectorized batch pipeline (scan→filter→hash join→project, n=%d)", n),
		Headers: []string{"execution", "batch", "|result|", "time", "steps", "speedup vs batch 1", "check"},
	}
	out.Add("row-at-a-time ablation", one.Batch, one.Value.Len(), one.Duration, one.Steps, "1.0x", "ok")
	for _, size := range []int{64, 256, 1024, 0} {
		r := MeasureBatch(eng, q, size, 7)
		label := "batched"
		if size == 0 {
			label = "auto (default size)"
		}
		if err := VerifyAgainst(fmt.Sprintf("B9 %s batch=%d", label, r.Batch), one.Value, r); err != nil {
			return err
		}
		if r.Steps != one.Steps {
			return fmt.Errorf("B9 batch=%d: %d eval steps, batch 1 reports %d", r.Batch, r.Steps, one.Steps)
		}
		out.Add(label, r.Batch, r.Value.Len(), r.Duration, r.Steps, Speedup(one.Duration, r.Duration),
			CheckAgainst(one.Value, r))
	}
	out.Note("same plan throughout — only the batch size varies (vectorized batches amortize per-call dispatch and governor polling)")
	out.Print(w)
	return nil
}
