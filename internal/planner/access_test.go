package planner

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// accessEnv builds the XYZ workload with a single-attribute index on X.b and
// a composite index on Y(b,d).
func accessEnv(t *testing.T) (*Estimator, *algebra.Builder, *storage.DB, *schema.Catalog) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 120, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 9,
	})
	if err := db.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Y", "b", "d"); err != nil {
		t.Fatal(err)
	}
	return NewEstimator(db), algebra.NewBuilder(cat), db, cat
}

// TestFindIndexScanShapes pins the σ-shape matcher: direct scans, chains of
// selections, wrapper Maps, constant-side orientation, and the longest-prefix
// preference.
func TestFindIndexScanShapes(t *testing.T) {
	est, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")

	// Direct σ-over-scan, literal on the right.
	s1, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	m, ok := FindIndexScan(s1, est.statsIndexes)
	if !ok || m.Table != "X" || m.Name() != "b" || m.Depth != 1 || m.Residual != nil {
		t.Fatalf("direct match = %+v, %v", m, ok)
	}
	// Literal on the left.
	s2, _ := b.Select(x, "x", tmql.MustParse("3 = x.b"))
	if _, ok := FindIndexScan(s2, est.statsIndexes); !ok {
		t.Error("flipped orientation not matched")
	}
	// Unindexed attribute: no match.
	s3, _ := b.Select(y, "y", tmql.MustParse("y.a = 1"))
	if _, ok := FindIndexScan(s3, est.statsIndexes); ok {
		t.Error("unindexed attribute matched")
	}
	// Composite coverage: both conjuncts disappear, no residual.
	s4, _ := b.Select(y, "y", tmql.MustParse("y.d = 2 AND y.b = 3"))
	m4, ok := FindIndexScan(s4, est.statsIndexes)
	if !ok || m4.Name() != "b,d" || m4.Depth != 2 || m4.Residual != nil {
		t.Fatalf("composite match = %+v, %v", m4, ok)
	}
	// Prefix coverage with residual: only the leading attribute is equal-to-
	// constant; the rest of the predicate survives.
	s5, _ := b.Select(y, "y", tmql.MustParse("y.b = 3 AND y.a > 0"))
	m5, ok := FindIndexScan(s5, est.statsIndexes)
	if !ok || m5.Depth != 1 || m5.Residual == nil {
		t.Fatalf("prefix match = %+v, %v", m5, ok)
	}
	// Non-leading attribute alone cannot use the composite index.
	s6, _ := b.Select(y, "y", tmql.MustParse("y.d = 2"))
	if _, ok := FindIndexScan(s6, est.statsIndexes); ok {
		t.Error("non-leading composite attribute matched")
	}
	// Non-constant comparison: no match.
	s7, _ := b.Select(x, "x", tmql.MustParse("x.b = x.b"))
	if _, ok := FindIndexScan(s7, est.statsIndexes); ok {
		t.Error("variable-vs-variable equality matched")
	}
	// Chain: σ over σ over scan still matches, the inner selection is kept.
	inner, _ := b.Select(x, "x", tmql.MustParse("x.b > -100"))
	s8, _ := b.Select(inner, "x", tmql.MustParse("x.b = 3"))
	m8, ok := FindIndexScan(s8, est.statsIndexes)
	if !ok || m8.Table != "X" {
		t.Fatalf("chained match = %+v, %v", m8, ok)
	}
	// Wrapper Map: σ[v.w.b = 3](Map[(w = x)](X)) — the flat-join shape.
	wrapped, err := b.Map(x, "x", tmql.MustParse("(w = x)"))
	if err != nil {
		t.Fatal(err)
	}
	s9, err := b.Select(wrapped, "v", tmql.MustParse("v.w.b = 3"))
	if err != nil {
		t.Fatal(err)
	}
	m9, ok := FindIndexScan(s9, est.statsIndexes)
	if !ok || m9.Table != "X" || m9.Depth != 1 {
		t.Fatalf("wrapper match = %+v, %v", m9, ok)
	}
	// A join input is not an access chain.
	z, _ := b.Scan("Z")
	j, err := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}
	s10, err := b.Select(j, "v", tmql.MustParse("v.b = 3"))
	if err == nil {
		if _, ok := FindIndexScan(s10, est.statsIndexes); ok {
			t.Error("join input treated as an access chain")
		}
	}
	if !est.HasIndexScan(s1) || est.HasIndexScan(s3) {
		t.Error("HasIndexScan disagrees with FindIndexScan")
	}
}

// TestFindIndexScanMultiPoint pins the multi-point matcher: OR/IN-list
// equality disjuncts over one indexed attribute become one index scan with
// several points, constants deduplicate, mixed attributes and non-literal
// disjuncts stay unmatched, and the point cap stops prefix coverage.
func TestFindIndexScanMultiPoint(t *testing.T) {
	est, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")

	// OR of equalities over one attribute: three points, no residual.
	s1, _ := b.Select(x, "x", tmql.MustParse("x.b = 1 OR x.b = 2 OR 3 = x.b"))
	m, ok := FindIndexScan(s1, est.statsIndexes)
	if !ok || m.Depth != 1 || len(m.Points) != 3 || m.Residual != nil {
		t.Fatalf("or-list match = %+v, %v", m, ok)
	}
	// IN-list: same shape through the membership operator, duplicates fold.
	s2, _ := b.Select(x, "x", tmql.MustParse("x.b IN {1, 2, 2, 3}"))
	m2, ok := FindIndexScan(s2, est.statsIndexes)
	if !ok || len(m2.Points) != 3 {
		t.Fatalf("in-list match = %+v, %v", m2, ok)
	}
	// Composite coverage multiplies out: 2 × 2 points over Y(b,d).
	s3, _ := b.Select(y, "y", tmql.MustParse("y.b IN {1, 2} AND (y.d = 3 OR y.d = 4)"))
	m3, ok := FindIndexScan(s3, est.statsIndexes)
	if !ok || m3.Depth != 2 || len(m3.Points) != 4 || m3.Residual != nil {
		t.Fatalf("composite multi-point match = %+v, %v", m3, ok)
	}
	// Disjuncts over different attributes cannot become points.
	s4, err := b.Select(y, "y", tmql.MustParse("y.b = 1 OR y.a = 2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := FindIndexScan(s4, est.statsIndexes); ok {
		t.Error("mixed-attribute OR matched")
	}
	// Closed non-literal constants are evaluated at plan time: 1 + 1 is a
	// point like any literal, and plan-time values — not expression shapes —
	// drive the dedup that keeps the expanded points disjoint.
	s5, _ := b.Select(x, "x", tmql.MustParse("x.b = 1 OR x.b = 1 + 1"))
	m5, ok := FindIndexScan(s5, est.statsIndexes)
	if !ok || m5.Depth != 1 || len(m5.Points) != 2 {
		t.Fatalf("closed-constant OR match = %+v, %v", m5, ok)
	}
	s5b, _ := b.Select(x, "x", tmql.MustParse("x.b IN {2, 1 + 1, 3}"))
	m5b, ok := FindIndexScan(s5b, est.statsIndexes)
	if !ok || len(m5b.Points) != 2 {
		t.Fatalf("value-level dedup of closed constants = %+v, %v", m5b, ok)
	}
	// Open disjunct constants (free variables) still poison the list.
	s5c, err := b.Select(x, "x", tmql.MustParse("x.b = 1 OR x.b = x.a + 1"))
	if err == nil {
		if _, ok := FindIndexScan(s5c, est.statsIndexes); ok {
			t.Error("open OR constant matched")
		}
	}
	// Beyond the cap the attribute stays uncovered.
	elems := make([]string, maxIndexScanPoints+1)
	for i := range elems {
		elems[i] = strconv.Itoa(i)
	}
	s6, _ := b.Select(x, "x", tmql.MustParse("x.b IN {"+strings.Join(elems, ", ")+"}"))
	if _, ok := FindIndexScan(s6, est.statsIndexes); ok {
		t.Errorf("IN-list beyond the %d-point cap matched", maxIndexScanPoints)
	}
	// Multi-point scans cost one probe per point, cardinality unchanged.
	one := est.Estimate(s2, ImplAuto, 1, AccessIndex)
	single, _ := b.Select(x, "x", tmql.MustParse("x.b = 1"))
	base := est.Estimate(single, ImplAuto, 1, AccessIndex)
	if one.Work != 3*base.Work {
		t.Errorf("3-point probe work %v, want 3× single-point %v", one.Work, base.Work)
	}
	// EXPLAIN names the points.
	if out := est.Explain(s2, ImplAuto, 1, AccessIndex, 0); !strings.Contains(out, "points=3") {
		t.Errorf("multi-point scan not rendered:\n%s", out)
	}
}

// TestCompileIndexScanMultiPointExecutes is the multi-point golden: every
// OR/IN shape compiled through the idxscan path answers byte-identically to
// the full scan, and a seeded sweep of random IN-lists (including constants
// absent from the table) holds the identity property.
func TestCompileIndexScanMultiPointExecutes(t *testing.T) {
	_, b, db, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	run := func(t *testing.T, plan algebra.Plan, access AccessPath) value.Value {
		t.Helper()
		it, err := New(exec.NewCtx(db), Options{Access: access}).Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		v, err := exec.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, tc := range []struct {
		name, pred string
		in         algebra.Plan
		v          string
	}{
		{"or-list", "x.b = 3 OR x.b = 5 OR x.b = 7", x, "x"},
		{"in-list", "x.b IN {3, 5, 7}", x, "x"},
		{"in-missing-keys", "x.b IN {3, 123456, 999}", x, "x"},
		{"composite-cross", "y.b IN {1, 3} AND (y.d = 2 OR y.d = 4)", y, "y"},
		{"multi-point-residual", "y.b IN {1, 3} AND y.a > 0", y, "y"},
		{"closed-const-or", "x.b = 3 OR x.b = 2 + 3", x, "x"},
		{"closed-const-in-dedup", "x.b IN {3, 1 + 2, 5}", x, "x"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := b.Select(tc.in, tc.v, tmql.MustParse(tc.pred))
			if err != nil {
				t.Fatal(err)
			}
			idx, scan := run(t, s, AccessIndex), run(t, s, AccessScan)
			if value.Key(idx) != value.Key(scan) {
				t.Errorf("multi-point idxscan diverged from scan (%d vs %d rows)", idx.Len(), scan.Len())
			}
		})
	}
	// Property sweep: random IN-lists over the indexed attribute.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		elems := make([]string, n)
		for i := range elems {
			elems[i] = strconv.Itoa(rng.Intn(40)) // keys run 0..24: hits and misses both
		}
		s, err := b.Select(x, "x", tmql.MustParse("x.b IN {"+strings.Join(elems, ", ")+"}"))
		if err != nil {
			t.Fatal(err)
		}
		idx, scan := run(t, s, AccessIndex), run(t, s, AccessScan)
		if value.Key(idx) != value.Key(scan) {
			t.Fatalf("trial %d (IN {%s}): idxscan diverged from scan", trial, strings.Join(elems, ", "))
		}
	}
}

// TestCompileIndexScanExecutes compiles the idxscan access path for every
// matched shape and checks byte-identical results against the scan path.
func TestCompileIndexScanExecutes(t *testing.T) {
	_, b, db, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	for _, tc := range []struct {
		name string
		plan algebra.Plan
	}{
		{"direct", func() algebra.Plan {
			s, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
			return s
		}()},
		{"composite-full", func() algebra.Plan {
			s, _ := b.Select(y, "y", tmql.MustParse("y.b = 3 AND y.d = 2"))
			return s
		}()},
		{"prefix-residual", func() algebra.Plan {
			s, _ := b.Select(y, "y", tmql.MustParse("y.b = 3 AND y.a > 0"))
			return s
		}()},
		{"chain", func() algebra.Plan {
			inner, _ := b.Select(x, "x", tmql.MustParse("x.b > -100"))
			s, _ := b.Select(inner, "x", tmql.MustParse("x.b = 3"))
			return s
		}()},
		{"wrapper", func() algebra.Plan {
			w, _ := b.Map(x, "x", tmql.MustParse("(w = x)"))
			s, _ := b.Select(w, "v", tmql.MustParse("v.w.b = 3"))
			return s
		}()},
		{"fallback-unindexed", func() algebra.Plan {
			s, _ := b.Select(y, "y", tmql.MustParse("y.a = 1"))
			return s
		}()},
		{"missing-key", func() algebra.Plan {
			s, _ := b.Select(x, "x", tmql.MustParse("x.b = 123456"))
			return s
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(access AccessPath) value.Value {
				it, err := New(exec.NewCtx(db), Options{Access: access}).Compile(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				v, err := exec.Collect(it)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			idx, scan := run(AccessIndex), run(AccessScan)
			if value.Key(idx) != value.Key(scan) {
				t.Errorf("idxscan result not byte-identical to scan (idx %d rows, scan %d rows)",
					idx.Len(), scan.Len())
			}
		})
	}
}

// TestIndexScanCheaperThanScan pins the cost intuition that makes the
// optimizer pick idxscan, and that cardinality estimates stay
// access-independent.
func TestIndexScanCheaperThanScan(t *testing.T) {
	est, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	s, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	scan := est.Estimate(s, ImplAuto, 1, AccessScan)
	idx := est.Estimate(s, ImplAuto, 1, AccessIndex)
	if idx.Work >= scan.Work {
		t.Errorf("idxscan %v should be cheaper than scan %v", idx, scan)
	}
	if idx.Rows != scan.Rows {
		t.Errorf("access path changed the cardinality estimate: %v vs %v", idx, scan)
	}
	// Unindexed selection: identical costs either way.
	y, _ := b.Scan("Y")
	sy, _ := b.Select(y, "y", tmql.MustParse("y.a = 1"))
	if got, want := est.Estimate(sy, ImplAuto, 1, AccessIndex), est.Estimate(sy, ImplAuto, 1, AccessScan); got != want {
		t.Errorf("fallback cost %v differs from scan %v", got, want)
	}
}

// TestChooseEnumeratesIdxScan: the idxscan access path joins the enumeration
// exactly when an index can serve a selection, wins on cost, and renders in
// the candidate table.
func TestChooseEnumeratesIdxScan(t *testing.T) {
	est, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	s, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	best, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: s}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Access != AccessIndex {
		t.Errorf("chose access=%s, want idxscan; candidates: %v", best.Access, all)
	}
	seenScan, seenIdx := false, false
	for _, c := range all {
		switch c.Access {
		case AccessScan:
			seenScan = true
		case AccessIndex:
			seenIdx = true
			if !strings.Contains(c.String(), "+idxscan") {
				t.Errorf("idxscan candidate row lacks the access marker: %s", c.String())
			}
		}
	}
	if !seenScan || !seenIdx {
		t.Fatalf("enumeration incomplete: scan=%v idx=%v", seenScan, seenIdx)
	}
	// Without a matching index the access dimension collapses to scans.
	y, _ := b.Scan("Y")
	sy, _ := b.Select(y, "y", tmql.MustParse("y.a = 1"))
	_, all2, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: sy}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all2 {
		if c.Access == AccessIndex {
			t.Errorf("idxscan enumerated without a usable index: %v", c)
		}
	}
	// Explicit pins restrict the enumeration.
	bestIdx, _, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: s}}, ImplAuto, 1, AccessIndex)
	if err != nil || bestIdx.Access != AccessIndex {
		t.Errorf("AccessIndex pin: best=%+v err=%v", bestIdx, err)
	}
	bestScan, _, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: s}}, ImplAuto, 1, AccessScan)
	if err != nil || bestScan.Access != AccessScan {
		t.Errorf("AccessScan pin: best=%+v err=%v", bestScan, err)
	}
}

// TestExplainRendersIndexScan: the estimator-aware rendering names the
// index-served selection with its index, prefix, and residual.
func TestExplainRendersIndexScan(t *testing.T) {
	est, b, _, _ := accessEnv(t)
	y, _ := b.Scan("Y")
	s, _ := b.Select(y, "y", tmql.MustParse("y.b = 3 AND y.a > 0"))
	out := est.Explain(s, ImplAuto, 1, AccessIndex, 0)
	if !strings.Contains(out, "IndexScan(Y) using Y(b,d) prefix=1") || !strings.Contains(out, "residual[") {
		t.Errorf("index scan not rendered:\n%s", out)
	}
	// The base scan the index replaces never runs and does not render; the
	// chain nodes rebuilt above the bucket rows do.
	if strings.Contains(out, " Scan(Y)") {
		t.Errorf("base scan rendered under the index scan:\n%s", out)
	}
	inner, _ := b.Select(y, "y", tmql.MustParse("y.a > -100"))
	chain, _ := b.Select(inner, "y", tmql.MustParse("y.b = 3"))
	out = est.Explain(chain, ImplAuto, 1, AccessIndex, 0)
	if !strings.Contains(out, "\n  Select[y.a > -100](y)[batch=1024]  (") || strings.Contains(out, " Scan(Y)") {
		t.Errorf("chain under the index scan misrendered:\n%s", out)
	}
	// Scan rendering unchanged under the scan path.
	if out := est.Explain(s, ImplAuto, 1, AccessScan, 0); strings.Contains(out, "IndexScan") {
		t.Errorf("scan path rendered an IndexScan:\n%s", out)
	}
}

// TestCompositeIndexProbeJoins: the composite-prefix matcher serves
// multi-key equi-joins — both pairs fold into the probe, leaving no
// residual — and compiled results match the hash family.
func TestCompositeIndexProbeJoins(t *testing.T) {
	est, b, db, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	j, _ := b.Join(algebra.JoinSemi, x, y, "x", "y", tmql.MustParse("x.b = y.b AND x.b = y.d"))
	pr, ok := est.indexProbeFor(j.R, j.RVar, j.Pred, j.LVar)
	if !ok || pr.Name() != "b,d" || pr.Depth != 2 || len(pr.Pairs) != 2 {
		t.Fatalf("composite probe = %+v, %v", pr, ok)
	}
	lk, rk, residual := ExtractEquiKeys(j.Pred, j.LVar, j.RVar)
	if res := indexResidual(lk, rk, pr, residual); res != nil {
		t.Errorf("covering composite probe left a residual: %s", tmql.Format(res))
	}
	keys := probeLKeys(lk, pr)
	if len(keys) != 2 {
		t.Fatalf("probeLKeys = %d exprs, want 2", len(keys))
	}
	run := func(impl JoinImpl) value.Value {
		it, err := New(exec.NewCtx(db), Options{Joins: impl}).Compile(j)
		if err != nil {
			t.Fatal(err)
		}
		v, err := exec.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if idx, hash := run(ImplIndex), run(ImplHash); value.Key(idx) != value.Key(hash) {
		t.Errorf("composite idxjoin result not byte-identical to hash (%d vs %d rows)", idx.Len(), hash.Len())
	}
	// Only one pair addressed: depth-1 prefix probe, the other pair residual.
	j1, _ := b.Join(algebra.JoinSemi, x, y, "x", "y", tmql.MustParse("x.b = y.b AND x.b = y.a"))
	pr1, ok := est.indexProbeFor(j1.R, j1.RVar, j1.Pred, j1.LVar)
	if !ok || pr1.Depth != 1 || pr1.Name() != "b,d" {
		t.Fatalf("prefix probe = %+v, %v", pr1, ok)
	}
	lk1, rk1, res1 := ExtractEquiKeys(j1.Pred, j1.LVar, j1.RVar)
	if res := indexResidual(lk1, rk1, pr1, res1); res == nil {
		t.Error("uncovered pair must stay in the residual")
	}
	if idx, hash := run(ImplIndex), run(ImplHash); value.Key(idx) != value.Key(hash) {
		t.Errorf("prefix idxjoin result not byte-identical to hash")
	}
}

// TestIndexDepthStatsDriveCost: deeper prefixes mean smaller buckets and a
// cheaper probe estimate.
func TestIndexDepthStatsDriveCost(t *testing.T) {
	est, _, _, _ := accessEnv(t)
	p1, ok1 := est.Stats().IndexDepth("Y", []string{"b", "d"}, 1)
	p2, ok2 := est.Stats().IndexDepth("Y", []string{"b", "d"}, 2)
	if !ok1 || !ok2 {
		t.Fatalf("IndexDepth unavailable: %v %v", ok1, ok2)
	}
	if p1.Keys >= p2.Keys {
		t.Errorf("depth-1 prefixes (%d) should be fewer than depth-2 keys (%d)", p1.Keys, p2.Keys)
	}
	if p1.AvgBucket <= p2.AvgBucket {
		t.Errorf("depth-1 buckets (%.2f) should be deeper than depth-2 (%.2f)", p1.AvgBucket, p2.AvgBucket)
	}
	if p1.Rows != p2.Rows {
		t.Errorf("row totals disagree across depths: %d vs %d", p1.Rows, p2.Rows)
	}
	if _, ok := est.Stats().IndexDepth("Y", []string{"b", "d"}, 3); ok {
		t.Error("out-of-range depth must report !ok")
	}
	if _, ok := est.Stats().IndexDepth("Y", []string{"a"}, 1); ok {
		t.Error("unregistered index must report !ok")
	}
}
