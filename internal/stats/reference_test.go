package stats

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// The reference collector below is the catalog's scan in its plain form:
// one value.Key string per field, a hash/fnv hasher per sketch add, every
// sampled scalar kept as a value.Value and ordered by sort.Slice. The tuned
// collector in stats.go must reproduce its figures exactly.

func referenceStats(tab *storage.Table, exactThreshold int) *TableStats {
	s := &TableStats{
		Distinct:  make(map[string]int),
		AvgSetLen: make(map[string]float64),
		Hist:      make(map[string]*Histogram),
		keys:      make(map[string]map[string]bool),
		Epoch:     tab.Epoch(),
		Card:      tab.Len(),
	}
	s.Approx = s.Card > exactThreshold
	setLen := make(map[string]int)
	setCnt := make(map[string]int)
	scalars := make(map[string][]value.Value)
	stride := 1
	if s.Card > histogramSampleCap {
		stride = (s.Card + histogramSampleCap - 1) / histogramSampleCap
	}
	var sketches map[string]*distinctSketch
	if s.Approx {
		s.keys = nil
		sketches = make(map[string]*distinctSketch)
	}
	for i, r := range tab.Rows() {
		if r.Kind() != value.KindTuple {
			continue
		}
		for _, f := range r.Fields() {
			if s.Approx {
				sk, ok := sketches[f.Label]
				if !ok {
					sk = newDistinctSketch(sketchK)
					sketches[f.Label] = sk
				}
				referenceSketchAdd(sk, value.Key(f.V))
			} else {
				m, ok := s.keys[f.Label]
				if !ok {
					m = make(map[string]bool)
					s.keys[f.Label] = m
				}
				m[value.Key(f.V)] = true
			}
			switch f.V.Kind() {
			case value.KindSet:
				setLen[f.Label] += f.V.Len()
				setCnt[f.Label]++
			case value.KindTuple, value.KindList:
			default:
				if i%stride == 0 {
					scalars[f.Label] = append(scalars[f.Label], f.V)
				}
			}
		}
	}
	for l, sk := range sketches {
		s.Distinct[l] = sk.Estimate()
	}
	for l, m := range s.keys {
		s.Distinct[l] = len(m)
	}
	for l, vals := range scalars {
		if h := referenceHistogram(vals, defaultBuckets); h != nil {
			s.Hist[l] = h
		}
	}
	for l, n := range setCnt {
		s.AvgSetLen[l] = float64(setLen[l]) / float64(n)
	}
	return s
}

func referenceSketchAdd(s *distinctSketch, key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	hv := mix64(h.Sum64())
	if s.seen[hv] {
		return
	}
	if len(s.mins) == s.k {
		if hv >= s.mins[len(s.mins)-1] {
			return
		}
		delete(s.seen, s.mins[len(s.mins)-1])
		s.mins = s.mins[:len(s.mins)-1]
	}
	i := sort.Search(len(s.mins), func(i int) bool { return s.mins[i] >= hv })
	s.mins = append(s.mins, 0)
	copy(s.mins[i+1:], s.mins[i:])
	s.mins[i] = hv
	s.seen[hv] = true
}

func referenceHistogram(vals []value.Value, nb int) *Histogram {
	if len(vals) == 0 {
		return nil
	}
	sort.Slice(vals, func(i, j int) bool { return value.Less(vals[i], vals[j]) })
	depth := (len(vals) + nb - 1) / nb
	h := &Histogram{Total: len(vals)}
	for start := 0; start < len(vals); {
		end := min(start+depth, len(vals))
		for end < len(vals) && value.Equal(vals[end-1], vals[end]) {
			end++
		}
		b := Bucket{Lo: vals[start], Hi: vals[end-1], Count: end - start, Distinct: 1}
		for i := start + 1; i < end; i++ {
			if !value.Equal(vals[i-1], vals[i]) {
				b.Distinct++
			}
		}
		h.Buckets = append(h.Buckets, b)
		start = end
	}
	return h
}

// referenceDangling is DanglingFrac's scan over the reference statistics.
func referenceDangling(db *storage.DB, ls, rs *TableStats, lTable, lAttr, rAttr string) float64 {
	if ls.Card == 0 {
		return 0.5
	}
	rKeys := rs.keys[rAttr]
	if rKeys == nil {
		frac := estimateDangling(ls.Hist[lAttr], rs.Hist[rAttr])
		if frac < 0 {
			return 0.5
		}
		return frac
	}
	tab, _ := db.Table(lTable)
	dangling := 0
	for _, r := range tab.Rows() {
		if r.Kind() != value.KindTuple {
			continue
		}
		f, ok := r.Get(lAttr)
		if !ok || !rKeys[value.Key(f)] {
			dangling++
		}
	}
	return float64(dangling) / float64(ls.Card)
}

// assertMatchesReference compares the catalog's statistics for every table
// of db, and the dangling fraction of every listed attribute pair, with the
// reference collector's at the same threshold.
func assertMatchesReference(t *testing.T, db *storage.DB, threshold int, pairs [][4]string) {
	t.Helper()
	c := New(db)
	c.SetExactThreshold(threshold)
	ref := map[string]*TableStats{}
	for _, name := range db.Names() {
		tab, _ := db.Table(name)
		want := referenceStats(tab, threshold)
		ref[name] = want
		got := c.Table(name)
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Card", got.Card, want.Card},
			{"Approx", got.Approx, want.Approx},
			{"Epoch", got.Epoch, want.Epoch},
			{"Distinct", got.Distinct, want.Distinct},
			{"AvgSetLen", got.AvgSetLen, want.AvgSetLen},
			{"Hist", got.Hist, want.Hist},
			{"keys", got.keys, want.keys},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("threshold %d, table %s: %s = %v, reference %v", threshold, name, f.name, f.got, f.want)
			}
		}
	}
	for _, p := range pairs {
		got := c.DanglingFrac(p[0], p[1], p[2], p[3])
		want := referenceDangling(db, ref[p[0]], ref[p[2]], p[0], p[1], p[3])
		if got != want {
			t.Errorf("threshold %d: DanglingFrac%v = %v, reference %v", threshold, p, got, want)
		}
	}
}

// thresholds covers the exact path, the approximate path and the default.
var thresholds = []int{0, DefaultExactThreshold, 1 << 30}

func TestCollectorMatchesReferenceXYZ(t *testing.T) {
	pairs := [][4]string{{"X", "b", "Y", "b"}, {"X", "b", "Y", "d"}, {"Y", "d", "Z", "d"}, {"Y", "b", "X", "b"}}
	for _, n := range []int{40, 600, 3000} {
		_, db := datagen.XYZ(datagen.Spec{
			NX: n, NY: 2 * n, NZ: n, Keys: max(1, n/10), DanglingFrac: 0.25, SetAttrCard: 3, Seed: int64(n),
		})
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for _, th := range thresholds {
				assertMatchesReference(t, db, th, pairs)
			}
		})
	}
}

// TestCollectorMatchesReferenceMixed covers the column kinds the int fast
// path must leave alone: a float column holding ints and floats (Compare
// equates 1 and 1.0, so it needs the generic order), strings, booleans and
// sets of strings.
func TestCollectorMatchesReferenceMixed(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("M", types.Tuple(
		types.F("n", types.Float),
		types.F("k", types.Int),
		types.F("s", types.String),
		types.F("t", types.Bool),
		types.F("c", types.SetOf(types.String)),
	))
	other := db.MustCreate("O", types.Tuple(types.F("n", types.Float), types.F("k", types.Int)))
	for i := 0; i < 3000; i++ {
		n := value.Int(int64(i % 17))
		if i%3 == 0 {
			n = value.Float(float64(i%23) / 2)
		}
		tab.MustInsert(value.TupleOf(
			value.F("n", n),
			value.F("k", value.Int(int64(i*7919%101))),
			value.F("s", value.Str(fmt.Sprintf("s%d", i%41))),
			value.F("t", value.Bool(i%5 == 0)),
			value.F("c", value.SetOf(value.Str(fmt.Sprintf("e%d", i%7)), value.Str(fmt.Sprintf("e%d", i%3)))),
		))
		if i%4 == 0 {
			other.MustInsert(value.TupleOf(value.F("n", value.Float(float64(i%13))), value.F("k", value.Int(int64(i%29)))))
		}
	}
	db.SealAll()
	pairs := [][4]string{{"M", "n", "O", "n"}, {"M", "k", "O", "k"}, {"O", "n", "M", "n"}, {"M", "s", "O", "k"}}
	for _, th := range thresholds {
		assertMatchesReference(t, db, th, pairs)
	}
}

// TestCollectorMatchesReferenceStride covers a table above
// histogramSampleCap, where only every stride-th row feeds the histograms,
// with an int column and a mixed one.
func TestCollectorMatchesReferenceStride(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a table above the histogram sample cap")
	}
	db := storage.NewDB()
	tab := db.MustCreate("B", types.Tuple(types.F("k", types.Int), types.F("n", types.Float)))
	for i := 0; i < histogramSampleCap+5000; i++ {
		n := value.Int(int64(i % 1000))
		if i%7 == 0 {
			n = value.Float(float64(i%300) + 0.5)
		}
		tab.MustInsert(value.TupleOf(value.F("k", value.Int(int64(i*31%5003))), value.F("n", n)))
	}
	db.SealAll()
	if tab.Len() <= histogramSampleCap {
		t.Fatalf("|B| = %d does not exceed the sample cap %d", tab.Len(), histogramSampleCap)
	}
	assertMatchesReference(t, db, DefaultExactThreshold, [][4]string{{"B", "k", "B", "n"}})
}
