package exec

import (
	"fmt"
	"sort"

	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// MergeNestJoin is the sort-merge implementation of the nest join: both
// inputs are sorted by their equi-keys; a single merge pass pairs each run of
// equal-keyed left elements with the matching right run. As §6 requires, the
// output order follows the left operand, each left element appearing exactly
// once with its full group.
//
// Only the nest-join variant of the merge join is provided: the inner merge
// join is subsumed by BatchHashJoin/NLJoin in the planner, while the merge
// *nest* join exists to demonstrate §6's point that any common join method
// adapts. Its sorted runs are built batch-at-a-time; its output is a row
// iterator.
type MergeNestJoin struct {
	Ctx          *Ctx
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string

	left  []sortedRow
	right []sortedRow
	li    int
	rlo   int
}

// Open drains and sorts both inputs by key.
func (j *MergeNestJoin) Open() error {
	if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return fmt.Errorf("exec: MergeNestJoin needs matching non-empty key lists")
	}
	var err error
	if j.left, err = drainSortedBatches(j.Ctx, j.L, j.LVar, j.LKeys); err != nil {
		return err
	}
	if j.right, err = drainSortedBatches(j.Ctx, j.R, j.RVar, j.RKeys); err != nil {
		return err
	}
	j.li, j.rlo = 0, 0
	return nil
}

// Next emits the next left element with its group.
func (j *MergeNestJoin) Next() (value.Value, bool, error) {
	if j.li >= len(j.left) {
		return value.Value{}, false, nil
	}
	if err := j.Ctx.check(); err != nil {
		return value.Value{}, false, err
	}
	l := j.left[j.li]
	j.li++
	// Advance the right cursor to the first key ≥ l.key. Because the left is
	// also sorted, rlo never moves backwards across Next calls.
	for j.rlo < len(j.right) && value.Compare(j.right[j.rlo].key, l.key) < 0 {
		j.rlo++
	}
	group := value.NewSetBuilder(0)
	for ri := j.rlo; ri < len(j.right) && value.Compare(j.right[ri].key, l.key) == 0; ri++ {
		r := j.right[ri]
		env := env2(j.LVar, l.v, j.RVar, r.v)
		match, err := j.Ctx.evalPred(j.Residual, env)
		if err != nil {
			return value.Value{}, false, err
		}
		if !match {
			continue
		}
		g, err := j.Ctx.evalIn(j.Fn, env)
		if err != nil {
			return value.Value{}, false, err
		}
		group.Add(g)
	}
	return l.v.Extend(j.Label, group.Build()), true, nil
}

// Close releases the sorted runs.
func (j *MergeNestJoin) Close() error {
	j.left, j.right = nil, nil
	return nil
}

// sortedRow is one element of a sorted run, with its evaluated key.
type sortedRow struct {
	key value.Value // tuple of key values (label-free list encoded as a list value)
	v   value.Value
}

// sortBuildCheckBatch is the governance + fault-injection + budget gate of
// the sorted-run build: one governor poll and one fault point per batch.
// Sorted rows carry no pre-encoded key, so the build budget charges the flat
// per-row overhead for all n rows in one call.
func sortBuildCheckBatch(c *Ctx, n int) error {
	if err := c.checkBatch(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointSortBuild); err != nil {
		return err
	}
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(int64(n) * buildRowOverhead)
}

// sortRowsStable orders a sorted-run build by the canonical key order, ties
// broken by the full element, making the order total and deterministic.
func sortRowsStable(rows []sortedRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if c := value.Compare(rows[i].key, rows[j].key); c != 0 {
			return c < 0
		}
		return value.Less(rows[i].v, rows[j].v)
	})
}

// drainSortedBatches drains a batch input into one sorted run. Retaining a
// row out of a batch is a struct copy (value.Value is immutable; only the
// batch's backing slice is reused), so the per-row work left is key
// evaluation.
func drainSortedBatches(c *Ctx, in BatchIterator, varName string, keys []tmql.Expr) ([]sortedRow, error) {
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var out []sortedRow
	for {
		bt, ok, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := sortBuildCheckBatch(c, len(bt.Rows)); err != nil {
			return nil, err
		}
		for _, v := range bt.Rows {
			k, err := evalKey(c, keys, varName, v)
			if err != nil {
				return nil, err
			}
			out = append(out, sortedRow{key: k, v: v})
		}
	}
	sortRowsStable(out)
	return out, nil
}

// evalKey evaluates the key expressions for element v bound to varName and
// packs them into one list value (lists compare lexicographically, which is
// exactly the composite-key order the merge joins need).
func evalKey(c *Ctx, keys []tmql.Expr, varName string, v value.Value) (value.Value, error) {
	env := env1(varName, v)
	ks := make([]value.Value, len(keys))
	for i, k := range keys {
		kv, err := c.evalIn(k, env)
		if err != nil {
			return value.Value{}, err
		}
		ks[i] = kv
	}
	return value.ListOf(ks...), nil
}
