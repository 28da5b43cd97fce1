package exec

import (
	"fmt"

	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// HashNestJoin is the hash implementation of the nest join. The right
// operand is the build table (§6's restriction: output must stay grouped by
// left elements, so the probing side must be the left); each left element
// probes its bucket, applies the join function to qualifying elements, and
// emits exactly one output tuple once the whole group is known.
type HashNestJoin struct {
	Ctx          *Ctx
	L, R         Iterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string

	table   *hashTable
	scratch []byte
}

// Open builds the hash table on the right input.
func (j *HashNestJoin) Open() error {
	if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return fmt.Errorf("exec: HashNestJoin needs matching non-empty key lists")
	}
	rows, err := Drain(j.R)
	if err != nil {
		return err
	}
	j.table = newHashTable(len(rows))
	for _, r := range rows {
		if err := buildCheck(j.Ctx); err != nil {
			return err
		}
		buf, err := appendRowKey(j.Ctx, j.RKeys, j.RVar, r, j.scratch[:0])
		if err != nil {
			return err
		}
		if err := j.Ctx.addBuild(len(buf)); err != nil {
			return err
		}
		j.scratch = buf[:0]
		j.table.add(buf, r)
	}
	return j.L.Open()
}

// buildCheck is the per-row governance + fault-injection gate of every hash
// build loop; probeCheck the same for probe loops.
func buildCheck(c *Ctx) error {
	if err := c.check(); err != nil {
		return err
	}
	return faultinject.Hit(faultinject.PointHashBuild)
}

func probeCheck(c *Ctx) error {
	if err := c.check(); err != nil {
		return err
	}
	return faultinject.Hit(faultinject.PointHashProbe)
}

// Next emits the next left element extended with its group.
func (j *HashNestJoin) Next() (value.Value, bool, error) {
	l, ok, err := j.L.Next()
	if err != nil || !ok {
		return value.Value{}, false, err
	}
	if err := probeCheck(j.Ctx); err != nil {
		return value.Value{}, false, err
	}
	buf, err := appendRowKey(j.Ctx, j.LKeys, j.LVar, l, j.scratch[:0])
	if err != nil {
		return value.Value{}, false, err
	}
	j.scratch = buf[:0]
	bucket := j.table.bucket(buf)
	group, err := nestGroup(j.Ctx, l, bucket, j.LVar, j.RVar, j.Residual, j.Fn)
	if err != nil {
		return value.Value{}, false, err
	}
	return l.Extend(j.Label, group), true, nil
}

// nestGroup applies the nest join's per-left-element grouping: the join
// function over the bucket candidates passing the residual, canonicalized
// into a set. The builder is sized by the bucket — the group is at most the
// bucket — so group construction never regrows. Shared by the serial and
// parallel nest joins.
func nestGroup(c *Ctx, l value.Value, bucket []value.Value,
	lvar, rvar string, residual, fn tmql.Expr) (value.Value, error) {
	group := value.NewSetBuilder(len(bucket))
	for _, r := range bucket {
		env := env2(lvar, l, rvar, r)
		if residual != nil {
			match, err := c.evalPred(residual, env)
			if err != nil {
				return value.Value{}, err
			}
			if !match {
				continue
			}
		}
		g, err := c.evalIn(fn, env)
		if err != nil {
			return value.Value{}, err
		}
		group.Add(g)
	}
	return group.Build(), nil
}

// Close releases the hash table and closes the left input.
func (j *HashNestJoin) Close() error {
	j.table = nil
	return j.L.Close()
}
