package exec

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// BatchHashJoin is the hash implementation of the flat join family on
// equi-keys: the right input is drained batch by batch into the hash table,
// then each left batch is probed in one tight loop and its join outputs
// emitted as one batch. All flat join kinds (inner, semi, anti, left-outer)
// are supported; a residual predicate (the non-equi remainder of the join
// condition) is re-checked against each bucket candidate, and key
// extraction and residual evaluation run compiled where the expressions
// allow. The build side is always the right operand: the planner shares
// this operator shape with the nest join, where §6 requires the right
// operand to be the build table. Semi and anti joins stop probing a bucket
// at the first qualifying candidate — the early-out §8 exploits when
// grouping is provably unnecessary.
//
// Governance follows the batched contract: one governor poll and one fault
// point per batch on both build and probe sides, build-byte budget charges
// summed per build batch.
type BatchHashJoin struct {
	Ctx        *Ctx
	Kind       algebra.JoinKind
	L, R       BatchIterator
	LVar, RVar string
	// LKeys/RKeys are the equi-key expressions over LVar and RVar; the i-th
	// left key matches the i-th right key.
	LKeys, RKeys []tmql.Expr
	// Residual is the remaining predicate (may be nil).
	Residual tmql.Expr
	// RElem is required for the outer join's NULL padding.
	RElem *types.Type

	table   *hashTable
	lenc    *keyEncoder
	res     *pairPredicate
	scratch []byte
	pad     value.Value
	out     Batch
}

// Open drains the right input into the hash table and opens the left.
func (j *BatchHashJoin) Open() error {
	if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return fmt.Errorf("exec: BatchHashJoin needs matching non-empty key lists")
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	renc := newKeyEncoder(j.Ctx, j.RKeys, j.RVar)
	j.table = newHashTable(0)
	for {
		bt, ok, err := j.R.NextBatch()
		if err != nil {
			j.R.Close()
			return err
		}
		if !ok {
			break
		}
		if err := j.buildBatch(bt, renc); err != nil {
			j.R.Close()
			return err
		}
	}
	if err := j.R.Close(); err != nil {
		return err
	}
	if j.Kind == algebra.JoinLeftOuter {
		if j.RElem == nil {
			return fmt.Errorf("exec: outer BatchHashJoin needs RElem for NULL padding")
		}
		j.pad = nullTuple(j.RElem)
	}
	j.lenc = newKeyEncoder(j.Ctx, j.LKeys, j.LVar)
	j.res = newPairPredicate(j.Ctx, j.Residual, j.LVar, j.RVar)
	return j.L.Open()
}

// buildBatch inserts one right batch into the hash table.
func (j *BatchHashJoin) buildBatch(bt *Batch, renc *keyEncoder) error {
	if err := j.Ctx.checkBatch(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
		return err
	}
	var batchBytes int64
	for _, r := range bt.Rows {
		buf, err := renc.appendKey(j.scratch[:0], r)
		if err != nil {
			return err
		}
		j.scratch = buf[:0]
		batchBytes += int64(len(buf)) + buildRowOverhead
		j.table.add(buf, r)
	}
	if j.Ctx.Gov != nil {
		if err := j.Ctx.Gov.AddBuildBytes(batchBytes); err != nil {
			return err
		}
	}
	return nil
}

// NextBatch probes left batches until one produces output. Output batch size
// follows the left batch (times the join fanout), so a high-fanout bucket
// can emit more rows than the configured size — batches bound governor poll
// spacing on the input side, which is what the latency bound needs.
func (j *BatchHashJoin) NextBatch() (*Batch, bool, error) {
	for {
		bt, ok, err := j.L.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := j.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		if err := faultinject.Hit(faultinject.PointHashProbe); err != nil {
			return nil, false, err
		}
		if err := bt.encodeKeys(j.lenc); err != nil {
			return nil, false, err
		}
		j.out.reset()
		for i, l := range bt.Rows {
			bucket := j.table.bucket(bt.Key(i))
			switch j.Kind {
			case algebra.JoinSemi, algebra.JoinAnti:
				m, err := j.probeAny(l, bucket)
				if err != nil {
					return nil, false, err
				}
				if m == (j.Kind == algebra.JoinSemi) {
					j.out.Rows = append(j.out.Rows, l)
				}
			default:
				matched := false
				for _, r := range bucket {
					if j.Residual != nil {
						ok, err := j.res.eval(l, r)
						if err != nil {
							return nil, false, err
						}
						if !ok {
							continue
						}
					}
					matched = true
					j.out.Rows = append(j.out.Rows, l.Concat(r))
				}
				if j.Kind == algebra.JoinLeftOuter && !matched {
					j.out.Rows = append(j.out.Rows, l.Concat(j.pad))
				}
			}
		}
		if j.out.Len() > 0 {
			return &j.out, true, nil
		}
	}
}

// probeAny reports whether any bucket candidate passes the residual, through
// the compiled residual when available.
func (j *BatchHashJoin) probeAny(l value.Value, bucket []value.Value) (bool, error) {
	if j.Residual == nil {
		return len(bucket) > 0, nil
	}
	for _, r := range bucket {
		ok, err := j.res.eval(l, r)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Close releases the hash table and closes the left input.
func (j *BatchHashJoin) Close() error {
	j.table = nil
	return j.L.Close()
}
