package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Batched forms of the hot-path leaf and unary operators. Each polls the
// governor and hits its fault point once per batch (see batch.go for the
// protocol), and runs its per-row work in a tight loop over the batch slice
// through compiled row programs where the expressions allow.

// BatchTableScan reads a stored table one zero-copy batch at a time: each
// emitted batch's Rows is a subslice of the table's row snapshot.
type BatchTableScan struct {
	Ctx   *Ctx
	Table string
	Size  int
	rows  []value.Value
	i     int
	b     Batch
}

// Open resolves the table.
func (s *BatchTableScan) Open() error {
	t, ok := s.Ctx.DB.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: unknown table %s", s.Table)
	}
	s.rows = t.Rows()
	s.i = 0
	s.Size = NormalizeBatchSize(s.Size)
	return nil
}

// NextBatch returns the next batch of rows.
func (s *BatchTableScan) NextBatch() (*Batch, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	if err := s.Ctx.checkBatch(); err != nil {
		return nil, false, err
	}
	if err := faultinject.Hit(faultinject.PointScan); err != nil {
		return nil, false, err
	}
	end := s.i + s.Size
	if end > len(s.rows) {
		end = len(s.rows)
	}
	s.b.reset()
	s.b.Rows = s.rows[s.i:end]
	s.i = end
	return &s.b, true, nil
}

// Close releases the row slice.
func (s *BatchTableScan) Close() error { s.rows = nil; return nil }

// BatchSliceScan iterates a fixed slice in zero-copy batches; used by tests
// and by operators that materialize intermediate results.
type BatchSliceScan struct {
	Rows []value.Value
	Size int
	i    int
	b    Batch
}

// Open resets the cursor.
func (s *BatchSliceScan) Open() error {
	s.i = 0
	s.Size = NormalizeBatchSize(s.Size)
	return nil
}

// NextBatch returns the next batch of elements.
func (s *BatchSliceScan) NextBatch() (*Batch, bool, error) {
	if s.i >= len(s.Rows) {
		return nil, false, nil
	}
	end := s.i + s.Size
	if end > len(s.Rows) {
		end = len(s.Rows)
	}
	s.b.reset()
	s.b.Rows = s.Rows[s.i:end]
	s.i = end
	return &s.b, true, nil
}

// Close is a no-op.
func (s *BatchSliceScan) Close() error { return nil }

// BatchFilter implements σ: it emits the input batch's rows satisfying
// Pred(Var).
type BatchFilter struct {
	Ctx  *Ctx
	In   BatchIterator
	Var  string
	Pred tmql.Expr
	pred *rowPredicate
	out  Batch
}

// Open compiles the predicate and opens the input.
func (f *BatchFilter) Open() error {
	f.pred = newRowPredicate(f.Ctx, f.Pred, f.Var)
	return f.In.Open()
}

// NextBatch filters input batches until one yields at least one row.
func (f *BatchFilter) NextBatch() (*Batch, bool, error) {
	for {
		bt, ok, err := f.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := f.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		f.out.reset()
		for _, v := range bt.Rows {
			keep, err := f.pred.eval(v)
			if err != nil {
				return nil, false, err
			}
			if keep {
				f.out.Rows = append(f.out.Rows, v)
			}
		}
		if f.out.Len() > 0 {
			return &f.out, true, nil
		}
	}
}

// Close closes the input.
func (f *BatchFilter) Close() error { return f.In.Close() }

// BatchMap applies Out(Var) to every row of every input batch.
type BatchMap struct {
	Ctx  *Ctx
	In   BatchIterator
	Var  string
	Out  tmql.Expr
	proj *rowProjector
	out  Batch
}

// Open compiles the projection and opens the input.
func (m *BatchMap) Open() error {
	m.proj = newRowProjector(m.Ctx, m.Out, m.Var)
	return m.In.Open()
}

// NextBatch maps the next input batch.
func (m *BatchMap) NextBatch() (*Batch, bool, error) {
	bt, ok, err := m.In.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if err := m.Ctx.checkBatch(); err != nil {
		return nil, false, err
	}
	m.out.reset()
	m.out.Rows = slices.Grow(m.out.Rows, len(bt.Rows))
	for _, v := range bt.Rows {
		ov, err := m.proj.eval(v)
		if err != nil {
			return nil, false, err
		}
		m.out.Rows = append(m.out.Rows, ov)
	}
	return &m.out, true, nil
}

// Close closes the input.
func (m *BatchMap) Close() error { return m.In.Close() }

// BatchDistinct removes duplicates across batches (TM collections are sets;
// operators such as Map may introduce duplicates that must not reach
// set-valued results). It dedups on the canonical key encoding (the identity
// value.Key gives), looked up allocation-free via string(buf); only
// first-seen rows pay a retained key-string allocation.
type BatchDistinct struct {
	Ctx     *Ctx
	In      BatchIterator
	seen    map[string]bool
	scratch []byte
	out     Batch
}

// Open opens the input and resets the seen table.
func (d *BatchDistinct) Open() error {
	d.seen = make(map[string]bool)
	return d.In.Open()
}

// NextBatch dedups input batches until one yields a not-yet-seen row.
func (d *BatchDistinct) NextBatch() (*Batch, bool, error) {
	for {
		bt, ok, err := d.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := d.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		d.out.reset()
		for _, v := range bt.Rows {
			buf := value.AppendKey(d.scratch[:0], v)
			d.scratch = buf[:0]
			if !d.seen[string(buf)] {
				d.seen[string(buf)] = true
				d.out.Rows = append(d.out.Rows, v)
			}
		}
		if d.out.Len() > 0 {
			return &d.out, true, nil
		}
	}
}

// Close closes the input.
func (d *BatchDistinct) Close() error { d.seen = nil; return d.In.Close() }
