// Package stats collects per-table statistics from a storage.DB for the
// planner's cost model: cardinality, per-attribute distinct counts, average
// set-attribute cardinality, and — the figure that drives the paper's
// strategy choice — the dangling-tuple fraction of a join-attribute pair
// (the outer tuples Kim's transformation loses and the nest join must
// preserve).
//
// Tables at or below the catalog's exact threshold get exact statistics in
// one scan (distinct counts from full key sets, dangling fractions by exact
// anti-lookup). Larger tables switch to approximate summaries — equi-depth
// histograms per scalar attribute plus KMV distinct-count sketches (see
// histogram.go) — so per-attribute memory is O(buckets + k) instead of
// O(distinct) and dangling fractions are estimated from histogram overlap.
// Every table also carries histograms for the planner's equality/range
// selectivity estimates regardless of mode. Collection is lazy by default
// (New); Analyze is the eager ANALYZE entry point that scans every table up
// front. Staleness is per table: statistics remember the storage epoch they
// were collected at and recollect automatically when the table has mutated —
// mutating one table never invalidates the statistics of another. FromXYZSpec is the datagen-aware entry point: it derives the same
// catalog analytically from a generator Spec, without touching data — used to
// validate Analyze against ground truth and to cost plans for
// not-yet-materialized workloads.
package stats

import (
	"math"
	"sort"
	"sync"

	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// TableStats summarizes one extension table.
type TableStats struct {
	// Card is the stored cardinality.
	Card int
	// Distinct maps top-level attribute labels to their distinct-value count —
	// exact below the catalog's threshold, a KMV sketch estimate above it.
	Distinct map[string]int
	// AvgSetLen maps set-valued attribute labels to their mean cardinality —
	// the main driver of nest-join output size and μ fan-out.
	AvgSetLen map[string]float64
	// Hist maps scalar attribute labels to their equi-depth histograms, the
	// planner's source for equality/range selectivity and (on the approximate
	// path) dangling-fraction estimates.
	Hist map[string]*Histogram
	// Approx reports that Distinct is sketch-estimated and the exact key sets
	// were dropped (table larger than the catalog's exact threshold).
	Approx bool

	// Epoch is the storage epoch of the table at collection time; the catalog
	// recollects lazily when the table's current epoch differs (see
	// storage.Table.Epoch).
	Epoch uint64

	// keys retains the distinct value keys per attribute so the catalog can
	// compute dangling fractions without rescanning this side. nil when
	// Approx.
	keys map[string]map[string]bool
}

// Histogram returns the attribute's histogram, or nil when the attribute is
// unknown or not scalar.
func (s *TableStats) Histogram(attr string) *Histogram { return s.Hist[attr] }

// Selectivity estimates equi-predicate selectivity on the attribute: 1/NDV,
// defaulting to 0.1 when the attribute is unknown.
func (s *TableStats) Selectivity(attr string) float64 {
	if d, ok := s.Distinct[attr]; ok && d > 0 {
		return 1.0 / float64(d)
	}
	return 0.1
}

// Catalog caches statistics for every table of one database plus pairwise
// dangling-tuple fractions. It is safe for concurrent use: engines share one
// catalog across queries, and computed TableStats are immutable once
// published.
//
// Staleness is tracked per table through storage mutation epochs: statistics
// record the table's epoch at collection time, and a lookup against a table
// whose epoch has since advanced recollects that table (and drops the
// dangling fractions involving it) lazily. Mutating one table therefore
// never discards the statistics of the others.
type Catalog struct {
	db *storage.DB

	mu       sync.Mutex
	tables   map[string]*TableStats
	dangling map[danglingKey]float64
	// indexDepth caches per-bucket depth profiles of index prefix levels,
	// tagged with the owning table's epoch (computing one scans the level's
	// bucket lengths; the cost model reads it per candidate plan).
	indexDepth map[indexDepthKey]indexDepthEntry
	// exactThreshold is the cardinality at or below which a table keeps exact
	// statistics; above it the catalog stores histograms and sketches only.
	exactThreshold int
}

// indexDepthKey identifies one cached depth profile: table, canonical index
// name, and prefix depth.
type indexDepthKey struct {
	table, index string
	depth        int
}

// indexDepthEntry tags a cached profile with the table epoch it was computed
// at; a differing current epoch recomputes.
type indexDepthEntry struct {
	epoch   uint64
	profile storage.DepthProfile
}

// danglingKey identifies one cached dangling fraction by its attribute pair;
// a struct key (rather than a formatted string) lets invalidation match
// either side's table by field.
type danglingKey struct {
	lTable, lAttr, rTable, rAttr string
}

// DefaultExactThreshold is the cardinality up to which per-table statistics
// stay exact. Above it the catalog switches to equi-depth histograms and KMV
// sketches.
const DefaultExactThreshold = 1024

// New returns a lazy catalog over db: each table is scanned on first use.
func New(db *storage.DB) *Catalog {
	return &Catalog{
		db:             db,
		tables:         make(map[string]*TableStats),
		dangling:       make(map[danglingKey]float64),
		indexDepth:     make(map[indexDepthKey]indexDepthEntry),
		exactThreshold: DefaultExactThreshold,
	}
}

// SetExactThreshold overrides the exact-statistics cardinality threshold
// (n <= 0 forces the approximate path for every table). It affects tables
// scanned after the call; estimator tests use it to compare the approximate
// path against exact ground truth on the same data.
func (c *Catalog) SetExactThreshold(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exactThreshold = n
}

// Analyze is the eager ANALYZE entry point: it scans every table of db and
// returns the fully populated catalog.
func Analyze(db *storage.DB) *Catalog {
	c := New(db)
	if db != nil {
		for _, name := range db.Names() {
			c.Table(name)
		}
	}
	return c
}

// Names returns the names of all analyzed tables, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns statistics for the named table, computing and caching them
// on first use and recollecting them lazily when the table has mutated since
// (its storage epoch advanced). Unknown tables yield zero statistics.
func (c *Catalog) Table(name string) *TableStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table(name)
}

// MarkStale drops the cached statistics for one table and every dangling
// fraction involving it; the next lookup recollects. Epoch tracking makes
// this automatic for storage-backed tables — MarkStale exists for catalogs
// populated through SetTable/SetDangling, whose figures have no backing
// epoch to compare against.
func (c *Catalog) MarkStale(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evict(name)
}

// evict removes the table's stats and associated dangling fractions. Caller
// holds the lock.
func (c *Catalog) evict(name string) {
	delete(c.tables, name)
	for k := range c.dangling {
		if k.lTable == name || k.rTable == name {
			delete(c.dangling, k)
		}
	}
}

// IndexKeys reports the distinct-key count of the persistent hash index with
// the given canonical name on table, if one is registered and live — the
// figure the planner's index joins use for lookup selectivity. Both counters
// are O(1) reads.
func (c *Catalog) IndexKeys(table, name string) (keys int, ok bool) {
	if c.db == nil {
		return 0, false
	}
	tab, ok := c.db.Table(table)
	if !ok {
		return 0, false
	}
	ix, ok := tab.Index(name)
	if !ok {
		return 0, false
	}
	return ix.Keys(), true
}

// Indexes enumerates the live persistent indexes of a table as ordered
// attribute lists — the costing-side oracle behind the planner's index-probe
// and index-scan matchers. Nil without storage backing or while the table is
// unsealed.
func (c *Catalog) Indexes(table string) [][]string {
	if c.db == nil {
		return nil
	}
	tab, ok := c.db.Table(table)
	if !ok {
		return nil
	}
	return tab.Indexes()
}

// IndexDepth returns the per-bucket depth profile of the index's prefix
// level — distinct prefixes, total rows, average and maximum bucket size —
// the figures driving the planner's index-scan probe cost. Profiles are
// cached per table epoch, so the O(distinct-prefixes) bucket scan is paid
// once per mutation generation, not per query.
func (c *Catalog) IndexDepth(table string, attrs []string, depth int) (storage.DepthProfile, bool) {
	if c.db == nil {
		return storage.DepthProfile{}, false
	}
	tab, ok := c.db.Table(table)
	if !ok {
		return storage.DepthProfile{}, false
	}
	ix, ok := tab.IndexOn(attrs)
	if !ok {
		return storage.DepthProfile{}, false
	}
	key := indexDepthKey{table: table, index: ix.Name(), depth: depth}
	epoch := tab.Epoch()
	c.mu.Lock()
	if e, ok := c.indexDepth[key]; ok && e.epoch == epoch {
		c.mu.Unlock()
		return e.profile, true
	}
	c.mu.Unlock()
	prof, ok := ix.Profile(depth)
	if !ok {
		return storage.DepthProfile{}, false
	}
	c.mu.Lock()
	c.indexDepth[key] = indexDepthEntry{epoch: epoch, profile: prof}
	c.mu.Unlock()
	return prof, true
}

func (c *Catalog) table(name string) *TableStats {
	var epoch uint64
	var tab *storage.Table
	if c.db != nil {
		if t, ok := c.db.Table(name); ok {
			tab = t
			epoch = t.Epoch()
		}
	}
	if s, ok := c.tables[name]; ok {
		if tab == nil || s.Epoch == epoch {
			return s
		}
		// The table mutated since collection: recollect it (and only it).
		c.evict(name)
	}
	s := &TableStats{
		Distinct:  make(map[string]int),
		AvgSetLen: make(map[string]float64),
		Hist:      make(map[string]*Histogram),
		keys:      make(map[string]map[string]bool),
	}
	c.tables[name] = s
	if tab == nil {
		return s
	}
	rows := tab.Rows()
	s.Epoch = epoch
	s.Card = len(rows)
	s.Approx = s.Card > c.exactThreshold
	if s.Approx {
		s.keys = nil
	}
	// Histogram collection memory is bounded: above the cap only every
	// stride-th row feeds the histograms (sketches and set counters still see
	// every row). A sealed table's rows are in canonical value order (Seal
	// sorts the tuples by their label-ordered attribute values), so the
	// stride is a systematic sample along that order, not a uniform random
	// one: it spreads evenly over the leading attribute's quantiles, and its
	// picks of the other attributes follow where they sort within each run
	// of equal leading values. All histogram figures are fractions of Total
	// and stay scale-free.
	stride := 1
	if s.Card > histogramSampleCap {
		stride = (s.Card + histogramSampleCap - 1) / histogramSampleCap
	}
	// cols caches each field position's column, so a table whose rows share
	// one tuple type looks a label up once, not once per row.
	var cols []*column
	byLabel := make(map[string]*column)
	var key []byte
	for i := range rows {
		r := &rows[i]
		if r.Kind() != value.KindTuple {
			continue
		}
		sampled := i%stride == 0
		fs := r.Fields()
		for j := range fs {
			f := &fs[j]
			if j >= len(cols) {
				cols = append(cols, nil)
			}
			col := cols[j]
			if col == nil || col.label != f.Label {
				col = byLabel[f.Label]
				if col == nil {
					col = newColumn(f.Label, s.Approx)
					byLabel[f.Label] = col
				}
				cols[j] = col
			}
			key = value.AppendKey(key[:0], f.V)
			if s.Approx {
				col.sketch.Add(key)
			} else if !col.keys[string(key)] {
				col.keys[string(key)] = true
			}
			switch f.V.Kind() {
			case value.KindSet:
				col.setLen += f.V.Len()
				col.setCnt++
			case value.KindTuple, value.KindList:
				// not histogrammed
			default:
				if sampled {
					col.addScalar(&f.V)
				}
			}
		}
	}
	for l, col := range byLabel {
		if s.Approx {
			s.Distinct[l] = col.sketch.Estimate()
		} else {
			s.keys[l] = col.keys
			s.Distinct[l] = len(col.keys)
		}
		if h := col.histogram(); h != nil {
			s.Hist[l] = h
		}
		if col.setCnt > 0 {
			s.AvgSetLen[l] = float64(col.setLen) / float64(col.setCnt)
		}
	}
	return s
}

// column accumulates one attribute's statistics during a table scan.
type column struct {
	label string
	// keys is the exact set of value keys (exact path); sketch estimates
	// their number (approximate path).
	keys   map[string]bool
	sketch *distinctSketch
	// setLen and setCnt total the cardinalities of set values and count them.
	setLen, setCnt int
	// The sampled scalar values: ints holds them while every one is an int,
	// vals (non-nil from then on) once any is not — Compare equates 1 and
	// 1.0, so a mixed numeric column must be ordered by Compare, not by the
	// int payloads.
	ints []int64
	vals []value.Value
}

func newColumn(label string, approx bool) *column {
	c := &column{label: label}
	if approx {
		c.sketch = newDistinctSketch(sketchK)
	} else {
		c.keys = make(map[string]bool)
	}
	return c
}

// addScalar records one sampled scalar value, keeping the samples in
// arrival order whichever slice holds them.
func (c *column) addScalar(v *value.Value) {
	if c.vals == nil {
		if v.Kind() == value.KindInt {
			c.ints = append(c.ints, v.AsInt())
			return
		}
		c.vals = make([]value.Value, 0, len(c.ints)+1)
		for _, x := range c.ints {
			c.vals = append(c.vals, value.Int(x))
		}
		c.ints = nil
	}
	c.vals = append(c.vals, *v)
}

// histogram builds the column's histogram, or nil without samples.
func (c *column) histogram() *Histogram {
	if c.vals != nil {
		return buildHistogram(c.vals, defaultBuckets)
	}
	return buildIntHistogram(c.ints, defaultBuckets)
}

// Selectivity estimates equi-predicate selectivity of attr on table.
func (c *Catalog) Selectivity(table, attr string) float64 {
	return c.Table(table).Selectivity(attr)
}

// DanglingFrac returns the fraction of lTable rows whose lAttr value matches
// no rAttr value of rTable — the tuples a semijoin drops, an antijoin keeps,
// and a nest join pairs with ∅. The result is cached per attribute pair.
// Below the exact threshold the figure is exact (anti-lookup of every left
// key against the right key set); above it, it is estimated from the two
// attribute histograms by bucket overlap. When either side is unknown the
// conventional default 0.5 is returned.
func (c *Catalog) DanglingFrac(lTable, lAttr, rTable, rAttr string) float64 {
	const def = 0.5
	key := danglingKey{lTable, lAttr, rTable, rAttr}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Freshness first: looking up either side recollects it if its epoch
	// advanced, which also sweeps stale dangling entries involving it — so
	// the cache hit below is always consistent with the current data.
	ls, rs := c.table(lTable), c.table(rTable)
	if f, ok := c.dangling[key]; ok {
		return f
	}
	if c.db == nil || ls.Card == 0 {
		c.dangling[key] = def
		return def
	}
	rKeys := rs.keys[rAttr]
	if rKeys == nil {
		// Approximate path: estimate from histogram overlap.
		frac := estimateDangling(ls.Hist[lAttr], rs.Hist[rAttr])
		if frac < 0 {
			frac = def
		}
		c.dangling[key] = frac
		return frac
	}
	tab, ok := c.db.Table(lTable)
	if !ok {
		c.dangling[key] = def
		return def
	}
	dangling := 0
	var buf []byte
	for _, r := range tab.Rows() {
		if r.Kind() != value.KindTuple {
			continue
		}
		f, ok := r.Get(lAttr)
		if ok {
			buf = value.AppendKey(buf[:0], f)
		}
		if !ok || !rKeys[string(buf)] {
			dangling++
		}
	}
	frac := float64(dangling) / float64(ls.Card)
	c.dangling[key] = frac
	return frac
}

// estimateDangling estimates the dangling fraction of the left attribute
// against the right from their histograms: per left bucket, the match
// probability is the containment assumption min(1, |R distinct in bucket
// range| / |bucket distinct|), so left values falling outside the right
// side's populated ranges count as dangling. Reports -1 when either
// histogram is missing.
func estimateDangling(lh, rh *Histogram) float64 {
	if lh == nil || lh.Total == 0 || rh == nil {
		return -1
	}
	dangling := 0.0
	for _, b := range lh.Buckets {
		rDistinct := rh.DistinctInRange(b.Lo, b.Hi)
		match := 1.0
		if b.Distinct > 0 {
			match = rDistinct / float64(b.Distinct)
			if match > 1 {
				match = 1
			}
		}
		dangling += float64(b.Count) * (1 - match)
	}
	return dangling / float64(lh.Total)
}

// SetDangling records a dangling fraction directly, bypassing scanning. Used
// by the analytic (datagen-aware) constructors.
func (c *Catalog) SetDangling(lTable, lAttr, rTable, rAttr string, frac float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dangling[danglingKey{lTable, lAttr, rTable, rAttr}] = frac
}

// SetTable records table statistics directly, bypassing scanning.
func (c *Catalog) SetTable(name string, s *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Distinct == nil {
		s.Distinct = make(map[string]int)
	}
	if s.AvgSetLen == nil {
		s.AvgSetLen = make(map[string]float64)
	}
	if s.Hist == nil {
		s.Hist = make(map[string]*Histogram)
	}
	if s.keys == nil && !s.Approx {
		s.keys = make(map[string]map[string]bool)
	}
	// Tag the override with the current epoch (when the table is backed by
	// storage), so it survives lookups until the table actually mutates.
	if c.db != nil {
		if t, ok := c.db.Table(name); ok {
			s.Epoch = t.Epoch()
		}
	}
	c.tables[name] = s
}

// FromXYZSpec is the datagen-aware ANALYZE: it derives the catalog for the
// synthetic X/Y/Z workload analytically from the generator parameters,
// without building or scanning the database. Matched tuples draw their join
// key uniformly from spec.Keys values; dangling tuples use a disjoint
// negative range, so the distinct count of a key attribute is roughly
// Keys + dangling rows, and DanglingFrac mirrors spec.DanglingFrac exactly.
func FromXYZSpec(spec datagen.Spec) *Catalog {
	if spec.Keys <= 0 {
		spec.Keys = 1
	}
	c := New(nil)
	keyNDV := func(n int) int {
		d := int(spec.DanglingFrac * float64(n))
		ndv := spec.Keys + d
		if ndv > n {
			ndv = n
		}
		return ndv
	}
	avgSet := float64(spec.SetAttrCard) / 2
	c.SetTable("X", &TableStats{
		Card:      spec.NX,
		Distinct:  map[string]int{"b": keyNDV(spec.NX)},
		AvgSetLen: map[string]float64{"a": avgSet},
	})
	c.SetTable("Y", &TableStats{
		Card: spec.NY,
		Distinct: map[string]int{
			"b": min(spec.Keys, spec.NY),
			"d": keyNDV(spec.NY),
			"a": min(2*max(1, spec.SetAttrCard), spec.NY),
		},
		AvgSetLen: map[string]float64{"c": avgSet},
	})
	// Z draws both attributes from small domains, so duplicate rows are
	// common and Seal's set semantics shrinks the stored cardinality; model
	// it as the expected number of distinct draws.
	zDomain := 2 * max(1, spec.SetAttrCard) * spec.Keys
	c.SetTable("Z", &TableStats{
		Card: int(expectedDistinct(spec.NZ, zDomain)),
		Distinct: map[string]int{
			"d": min(spec.Keys, spec.NZ),
			"c": min(2*max(1, spec.SetAttrCard), spec.NZ),
		},
	})
	c.SetDangling("X", "b", "Y", "b", spec.DanglingFrac)
	c.SetDangling("X", "b", "Y", "d", spec.DanglingFrac)
	c.SetDangling("Y", "d", "Z", "d", spec.DanglingFrac)
	return c
}

// expectedDistinct is the expected number of distinct values among n uniform
// draws from a domain of d values: d·(1 − (1 − 1/d)^n).
func expectedDistinct(n, d int) float64 {
	if d <= 0 || n <= 0 {
		return 0
	}
	return float64(d) * (1 - math.Pow(1-1/float64(d), float64(n)))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
