package exec

import (
	"fmt"
	"sort"

	"tmdb/internal/algebra"
	"tmdb/internal/eval"
	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Parallel partitioned execution of the hash join family on the morsel
// scheduler (see sched.go): the build (right) and probe (left) inputs are
// partitioned by key hash across Degree partitions through the scheduler's
// exchange pump, then each partition's hash build runs as one morsel and
// each probe-side fragment — at most one input batch of rows by construction
// — runs as its own morsel with a statically assigned output slot. Morsels
// start on their partition's home worker and can be stolen by idle workers,
// so a skewed partition no longer serializes on one goroutine. Results are
// correct because rows that can ever match share identical key bytes and
// therefore land in the same partition; results are deterministic because
// output slots are concatenated in static (partition, fragment) order and
// every query result passes through the set canonicalization in
// exec.Collect, which erases arrival order — so the final value is
// bit-identical to serial execution at any degree and any steal schedule.
//
// Each worker runs over a forked Ctx with its own evaluator, so the
// EvalSteps counter is sharded per worker — no races, no false sharing —
// and folded back into the parent by the scheduler. Key encodings are
// computed once during partitioning and stored as offsets into per-fragment
// byte arenas; build and probe reuse them, keeping the per-row key cost to
// a single evaluation and zero string allocations on the probe side.

// minParallelRows is the input size below which the partitioned operators
// run their morsels inline on the calling goroutine: the partitioned
// algorithm (and thus the result) is unchanged, only the goroutine fan-out
// is skipped where it could not pay for itself.
const minParallelRows = 256

// fragment is one producer's contribution to one partition: rows plus their
// encoded keys packed into an arena (offs[i]..offs[i+1] delimits row i's key).
type fragment struct {
	rows []value.Value
	offs []uint32
	keys []byte
}

func (f *fragment) add(v value.Value, key []byte) {
	if len(f.offs) == 0 {
		f.offs = append(f.offs, 0)
	}
	f.rows = append(f.rows, v)
	f.keys = append(f.keys, key...)
	f.offs = append(f.offs, uint32(len(f.keys)))
}

func (f *fragment) key(i int) []byte { return f.keys[f.offs[i]:f.offs[i+1]] }

// partitionSet is the result of the exchange: parts[p] holds partition p's
// fragments in input-sequence order, making per-partition row order
// deterministic regardless of which pump worker routed which batch.
type partitionSet struct {
	parts [][]fragment
	total int
}

// rowCount returns the number of rows routed to partition p.
func (ps *partitionSet) rowCount(p int) int {
	n := 0
	for i := range ps.parts[p] {
		n += len(ps.parts[p][i].rows)
	}
	return n
}

// each visits partition p's rows in fragment order.
func (ps *partitionSet) each(p int, fn func(v value.Value, key []byte) error) error {
	for i := range ps.parts[p] {
		f := &ps.parts[p][i]
		for r := range f.rows {
			if err := fn(f.rows[r], f.key(r)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fork returns a context over the same database with a fresh evaluator, so
// parallel workers never share a step counter; the scheduler folds the
// forked counters back into the parent once the workers join. The Governor
// is shared, not forked: cancellation and budget accounting are
// query-global, and its methods are atomic precisely so workers need no
// coordination. The Scheduler rides along for the same reason — its
// counters are query-global atomics.
func (c *Ctx) fork() *Ctx {
	f := &Ctx{DB: c.DB, Ev: eval.New(c.DB), Gov: c.Gov, Sched: c.Sched}
	if c.Gov != nil {
		f.Ev.Check = c.Gov.Err
	}
	return f
}

// firstError returns the lowest-indexed non-nil error, keeping error
// reporting deterministic under concurrency.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seqRows is one feeder send: a batch's rows copied into an owned slice,
// tagged with the batch's input sequence number so partition contents can be
// reassembled in input order regardless of which pump worker handled which
// batch.
type seqRows struct {
	seq  int
	rows []value.Value
}

// seqFragment is one producer's routing of one batch into one partition.
type seqFragment struct {
	fragment
	seq int
}

// routeBatch routes one batch's rows into per-partition fragments, encoding
// each row's key on the way (the per-row hot cost the pump parallelizes),
// and appends the non-empty fragments to acc. scratch is the reusable key
// buffer, returned extended for reuse.
func routeBatch(enc *keyEncoder, sb seqRows, nparts int, acc [][]seqFragment, scratch []byte) ([]byte, error) {
	frs := make([]fragment, nparts)
	for _, r := range sb.rows {
		buf, err := enc.appendKey(scratch[:0], r)
		if err != nil {
			return scratch, err
		}
		scratch = buf[:0]
		frs[hashKeyBytes(buf)%uint64(nparts)].add(r, buf)
	}
	for p := range frs {
		if len(frs[p].rows) > 0 {
			acc[p] = append(acc[p], seqFragment{fragment: frs[p], seq: sb.seq})
		}
	}
	return scratch, nil
}

// assemblePartitions merges per-producer fragment accumulators into a
// partitionSet, ordering each partition's fragments by input sequence so the
// partition contents are deterministic — input order filtered by partition —
// independent of worker scheduling.
func assemblePartitions(accs [][][]seqFragment, nparts, total int) *partitionSet {
	ps := &partitionSet{parts: make([][]fragment, nparts), total: total}
	for p := 0; p < nparts; p++ {
		var sfs []seqFragment
		for _, acc := range accs {
			sfs = append(sfs, acc[p]...)
		}
		sort.Slice(sfs, func(i, j int) bool { return sfs[i].seq < sfs[j].seq })
		for _, sf := range sfs {
			ps.parts[p] = append(ps.parts[p], sf.fragment)
		}
	}
	return ps
}

// partitionInput drains src and routes every row to one of nparts partitions
// by the hash of its encoded key — the exchange. Rows move from the feeder
// (the calling goroutine, which owns the source iterator) to the scheduler's
// pump workers one batch-sized morsel per send; workers encode keys on
// forked contexts and route rows to per-partition fragments. Inputs that end
// below minParallelRows are routed inline with no goroutine fan-out. The
// source is always closed before returning. Key-encoding steps are counted
// on the forked contexts and folded into c, like every other worker's.
func partitionInput(c *Ctx, s *Scheduler, src BatchIterator, keys []tmql.Expr, varName string, nparts int) (*partitionSet, error) {
	if err := src.Open(); err != nil {
		src.Close()
		return nil, err
	}
	// feed pulls the next batch, polls the governor, and hits the exchange
	// fault point — once per batch.
	total, seq := 0, 0
	feed := func() (seqRows, bool, error) {
		bt, ok, err := src.NextBatch()
		if err != nil || !ok {
			return seqRows{}, false, err
		}
		if err := c.checkBatch(); err != nil {
			return seqRows{}, false, err
		}
		if err := faultinject.Hit(faultinject.PointPartitionSend); err != nil {
			return seqRows{}, false, err
		}
		sb := seqRows{seq: seq, rows: append([]value.Value(nil), bt.Rows...)}
		seq++
		total += len(sb.rows)
		return sb, true, nil
	}
	// Buffer until the input proves large enough to pay for goroutines.
	var pending []seqRows
	var feedErr error
	for total < minParallelRows {
		sb, ok, err := feed()
		if err != nil {
			feedErr = err
			break
		}
		if !ok {
			break
		}
		pending = append(pending, sb)
	}
	if feedErr != nil || total < minParallelRows {
		// Small input (or an early feed error): route what arrived inline on
		// a single forked context — partitioning, and thus the result, is
		// unchanged; only the fan-out is skipped.
		src.Close()
		ctx := c.fork()
		enc := newKeyEncoder(ctx, keys, varName)
		acc := make([][]seqFragment, nparts)
		var scratch []byte
		var err error
		for _, sb := range pending {
			if scratch, err = routeBatch(enc, sb, nparts, acc, scratch); err != nil {
				break
			}
		}
		c.Ev.Steps += ctx.Ev.Steps
		if feedErr == nil {
			feedErr = err
		}
		if feedErr != nil {
			return nil, feedErr
		}
		return assemblePartitions([][][]seqFragment{acc}, nparts, total), nil
	}
	// Large input: replay the buffered batches and stream the rest through
	// the scheduler's pump. Per-worker accumulators and key encoders are
	// created lazily — each index is only ever touched by its own worker.
	pi := 0
	feedAll := func() (seqRows, bool, error) {
		if pi < len(pending) {
			sb := pending[pi]
			pi++
			return sb, true, nil
		}
		return feed()
	}
	accs := make([][][]seqFragment, s.Workers())
	encs := make([]*keyEncoder, s.Workers())
	scratches := make([][]byte, s.Workers())
	err := s.pump(c, feedAll, func(w int, ctx *Ctx, sb seqRows) error {
		if accs[w] == nil {
			accs[w] = make([][]seqFragment, nparts)
			encs[w] = newKeyEncoder(ctx, keys, varName)
		}
		var rerr error
		scratches[w], rerr = routeBatch(encs[w], sb, nparts, accs[w], scratches[w])
		return rerr
	})
	src.Close()
	if err != nil {
		return nil, err
	}
	filled := accs[:0]
	for _, acc := range accs {
		if acc != nil {
			filled = append(filled, acc)
		}
	}
	return assemblePartitions(filled, nparts, total), nil
}

// parOutput is the shared output stage of the partitioned operators: Open
// materializes per-partition result slices, NextBatch streams them in
// partition order, Close releases them (both inputs were drained — and
// closed — in Open, so there is nothing else to tear down).
type parOutput struct {
	out   [][]value.Value
	pi    int
	oi    int
	bsize int
	b     Batch
}

func (o *parOutput) reset(nparts, bsize int) {
	if nparts < 0 {
		nparts = 0 // invalid degrees are rejected by runPartitioned right after
	}
	o.out = make([][]value.Value, nparts)
	o.pi, o.oi = 0, 0
	o.bsize = NormalizeBatchSize(bsize)
}

// NextBatch streams the materialized output as zero-copy slices of the
// per-partition result vectors.
func (o *parOutput) NextBatch() (*Batch, bool, error) {
	for o.pi < len(o.out) {
		part := o.out[o.pi]
		if o.oi < len(part) {
			end := o.oi + o.bsize
			if end > len(part) {
				end = len(part)
			}
			o.b.reset()
			o.b.Rows = part[o.oi:end]
			o.oi = end
			return &o.b, true, nil
		}
		o.pi++
		o.oi = 0
	}
	return nil, false, nil
}

// Close releases the output.
func (o *parOutput) Close() error {
	o.out = nil
	return nil
}

// runPartitioned is the shared orchestration of the partitioned operators on
// the morsel scheduler: validate the degree, exchange-partition both inputs
// through the pump, then run two scheduled phases with a barrier between —
// build (one morsel per partition, via buildPart) and probe (one morsel per
// (partition, fragment), via probeFragment) — and concatenate the probe
// slots into out[part] in static order. Inputs below minParallelRows run
// the same morsels inline on one worker.
func runPartitioned(c *Ctx, degree int, l, r BatchIterator,
	lkeys, rkeys []tmql.Expr, lvar, rvar string,
	probeFragment func(ctx *Ctx, table *hashTable, f *fragment) ([]value.Value, error),
	out [][]value.Value) error {
	if len(lkeys) == 0 || len(lkeys) != len(rkeys) {
		return fmt.Errorf("exec: partitioned join needs matching non-empty key lists")
	}
	if degree < 2 {
		return fmt.Errorf("exec: partitioned join needs Degree >= 2, got %d", degree)
	}
	s := c.scheduler(degree, 0)
	rp, err := partitionInput(c, s, r, rkeys, rvar, degree)
	if err != nil {
		return err
	}
	lp, err := partitionInput(c, s, l, lkeys, lvar, degree)
	if err != nil {
		return err
	}
	maxWorkers := s.Workers()
	if rp.total+lp.total < minParallelRows {
		maxWorkers = 1
	}

	// Build phase: one morsel per partition, homed on partition index.
	tables := make([]*hashTable, degree)
	btasks := make([]morselTask, degree)
	for p := 0; p < degree; p++ {
		p := p
		btasks[p] = morselTask{home: p, fn: func(ctx *Ctx) error {
			t, err := buildPartition(ctx, rp, p)
			if err != nil {
				return err
			}
			tables[p] = t
			return nil
		}}
	}
	if err := s.run(c, btasks, maxWorkers); err != nil {
		return err
	}

	// Probe phase: one morsel per (partition, fragment). A fragment holds at
	// most one input batch of rows, so this is the morsel granularity that
	// lets idle workers steal into a skewed partition; each morsel writes a
	// statically assigned slot, so stealing can never reorder output.
	slots := make([][][]value.Value, degree)
	var ptasks []morselTask
	for p := 0; p < degree; p++ {
		slots[p] = make([][]value.Value, len(lp.parts[p]))
		for fi := range lp.parts[p] {
			p, fi := p, fi
			ptasks = append(ptasks, morselTask{home: p, fn: func(ctx *Ctx) error {
				res, err := probeFragment(ctx, tables[p], &lp.parts[p][fi])
				if err != nil {
					return err
				}
				slots[p][fi] = res
				return nil
			}})
		}
	}
	if err := s.run(c, ptasks, maxWorkers); err != nil {
		return err
	}
	for p := 0; p < degree; p++ {
		n := 0
		for _, fo := range slots[p] {
			n += len(fo)
		}
		if n == 0 {
			continue
		}
		merged := make([]value.Value, 0, n)
		for _, fo := range slots[p] {
			merged = append(merged, fo...)
		}
		out[p] = merged
	}
	return nil
}

// buildPartition builds a hash table over one partition's rows, reusing the
// keys encoded during partitioning. Build rows are accounted against the
// build-byte budget and pass the hash.build fault point, like the serial
// build.
func buildPartition(c *Ctx, ps *partitionSet, p int) (*hashTable, error) {
	table := newHashTable(ps.rowCount(p))
	err := ps.each(p, func(v value.Value, key []byte) error {
		if err := c.check(); err != nil {
			return err
		}
		if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
			return err
		}
		if err := c.addBuild(len(key)); err != nil {
			return err
		}
		table.add(key, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// ParHashJoin is the parallel partitioned form of BatchHashJoin: inner,
// semi, anti, and left-outer flat joins on equi-keys, partitioned by key
// hash across Degree partitions and scheduled as morsels on the query's
// worker pool. Open materializes the full output; NextBatch streams it.
type ParHashJoin struct {
	Ctx          *Ctx
	Kind         algebra.JoinKind
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	RElem        *types.Type
	// Degree is the number of hash partitions. The worker-pool size comes
	// from the query's Scheduler (Degree doubles as the pool hint when the
	// context carries none).
	Degree int
	// BatchSize sizes the output batches (0 = default).
	BatchSize int

	parOutput
	pad value.Value
}

// Open partitions both inputs, schedules each partition's build and probe
// morsels on the worker pool, and folds the workers' evaluation steps into
// the parent context.
func (j *ParHashJoin) Open() error {
	if j.Kind == algebra.JoinLeftOuter {
		if j.RElem == nil {
			return fmt.Errorf("exec: outer ParHashJoin needs RElem for NULL padding")
		}
		j.pad = nullTuple(j.RElem)
	}
	j.reset(j.Degree, j.BatchSize)
	return runPartitioned(j.Ctx, j.Degree, j.L, j.R,
		j.LKeys, j.RKeys, j.LVar, j.RVar, j.probeFragment, j.out)
}

// probeFragment runs the serial hash-join probe over one fragment's rows
// against its partition's table, returning the fragment's output slot.
func (j *ParHashJoin) probeFragment(ctx *Ctx, table *hashTable, f *fragment) ([]value.Value, error) {
	var out []value.Value
	for i := range f.rows {
		l, key := f.rows[i], f.key(i)
		if err := ctx.check(); err != nil {
			return nil, err
		}
		if err := faultinject.Hit(faultinject.PointHashProbe); err != nil {
			return nil, err
		}
		bucket := table.bucket(key)
		switch j.Kind {
		case algebra.JoinSemi, algebra.JoinAnti:
			m, err := probeAnyBucket(ctx, l, bucket, j.LVar, j.RVar, j.Residual)
			if err != nil {
				return nil, err
			}
			if m == (j.Kind == algebra.JoinSemi) {
				out = append(out, l)
			}
		default:
			matched := false
			for _, r := range bucket {
				if j.Residual != nil {
					ok, err := ctx.evalPred(j.Residual, env2(j.LVar, l, j.RVar, r))
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				matched = true
				out = append(out, l.Concat(r))
			}
			if j.Kind == algebra.JoinLeftOuter && !matched {
				out = append(out, l.Concat(j.pad))
			}
		}
	}
	return out, nil
}

// probeAnyBucket reports whether any bucket candidate passes the residual;
// with no residual, bucket membership already answers it.
func probeAnyBucket(c *Ctx, l value.Value, bucket []value.Value,
	lvar, rvar string, residual tmql.Expr) (bool, error) {
	if residual == nil {
		return len(bucket) > 0, nil
	}
	for _, r := range bucket {
		ok, err := c.evalPred(residual, env2(lvar, l, rvar, r))
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// ParHashNestJoin is the parallel partitioned form of HashNestJoin. The §6
// restrictions carry over unchanged: the right operand is the build side and
// each left element's entire group is known before its output tuple is
// emitted — a left element's matches all share its key and therefore its
// partition, so the group is complete within one probe morsel.
type ParHashNestJoin struct {
	Ctx          *Ctx
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string
	Degree       int
	BatchSize    int

	parOutput
}

// Open partitions both inputs and schedules each partition's build and
// per-fragment group-probe morsels on the worker pool.
func (j *ParHashNestJoin) Open() error {
	j.reset(j.Degree, j.BatchSize)
	return runPartitioned(j.Ctx, j.Degree, j.L, j.R,
		j.LKeys, j.RKeys, j.LVar, j.RVar, j.probeFragment, j.out)
}

// probeFragment builds each left row's nested group from its partition's
// bucket, returning the fragment's output slot.
func (j *ParHashNestJoin) probeFragment(ctx *Ctx, table *hashTable, f *fragment) ([]value.Value, error) {
	var out []value.Value
	for i := range f.rows {
		l, key := f.rows[i], f.key(i)
		if err := ctx.check(); err != nil {
			return nil, err
		}
		if err := faultinject.Hit(faultinject.PointHashProbe); err != nil {
			return nil, err
		}
		group, err := nestGroup(ctx, l, table.bucket(key), j.LVar, j.RVar, j.Residual, j.Fn)
		if err != nil {
			return nil, err
		}
		out = append(out, l.Extend(j.Label, group))
	}
	return out, nil
}
