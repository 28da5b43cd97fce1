package planner

import (
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

// indexEnv builds the XYZ workload with a persistent index on Z.d and
// returns the estimator, plan builder, and database.
func indexEnv(t *testing.T) (*Estimator, *algebra.Builder, *storage.DB, *schema.Catalog) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 100, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 4,
	})
	if err := db.CreateIndex("Z", "d"); err != nil {
		t.Fatal(err)
	}
	return NewEstimator(db), algebra.NewBuilder(cat), db, cat
}

// TestFindIndexProbeShapes pins the shape test: a direct scan with an
// indexed equi-key attribute is probeable, wrapped or unindexed shapes are
// not, and extra equi-key pairs are skipped over to find the covered one.
func TestFindIndexProbeShapes(t *testing.T) {
	est, b, _, _ := indexEnv(t)
	z, _ := b.Scan("Z")
	x, _ := b.Scan("X")
	j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	pr, ok := est.indexProbeFor(j.R, j.RVar, j.Pred, j.LVar)
	if !ok || pr.Table != "Z" || pr.Name() != "d" || pr.Depth != 1 || len(pr.Pairs) != 1 || pr.Pairs[0] != 0 {
		t.Fatalf("probe = %+v, %v", pr, ok)
	}
	// Unindexed attribute: no probe.
	j2, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
	if _, ok := est.indexProbeFor(j2.R, j2.RVar, j2.Pred, j2.LVar); ok {
		t.Error("unindexed attribute reported a probe")
	}
	// Multi-pair predicate: the covered pair is found even when it is not
	// first, and HasIndexProbe sees through the tree.
	j3, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.c AND x.b = z.d"))
	pr3, ok := est.indexProbeFor(j3.R, j3.RVar, j3.Pred, j3.LVar)
	if !ok || len(pr3.Pairs) != 1 || pr3.Pairs[0] != 1 {
		t.Errorf("multi-pair probe = %+v, %v (want pair 1)", pr3, ok)
	}
	if !est.HasIndexProbe(j3) || est.HasIndexProbe(j2) {
		t.Error("HasIndexProbe disagrees with indexProbeFor")
	}
	// A filtered (non-scan) right operand is not probeable.
	zf, _ := b.Select(z, "z", tmql.MustParse("z.c = 1"))
	j4, _ := b.Join(algebra.JoinSemi, x, zf, "x", "z", tmql.MustParse("x.b = z.d"))
	if _, ok := est.indexProbeFor(j4.R, j4.RVar, j4.Pred, j4.LVar); ok {
		t.Error("filtered right operand reported a probe")
	}
}

// TestIndexJoinCheaperThanHash pins the cost intuition that makes the
// optimizer pick idxjoin: the persistent index removes the right-input
// drain and build pass, so the idxjoin estimate is strictly below hash.
func TestIndexJoinCheaperThanHash(t *testing.T) {
	est, b, _, _ := indexEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	semi, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	hash := est.Estimate(semi, ImplHash, 1, AccessScan)
	idx := est.Estimate(semi, ImplIndex, 1, AccessScan)
	if idx.Work >= hash.Work {
		t.Errorf("idxjoin %v should be cheaper than hash %v", idx, hash)
	}
	if idx.Rows != hash.Rows {
		t.Errorf("impl choice changed the cardinality estimate: %v vs %v", idx, hash)
	}
	// Without a usable index the idxjoin family costs as its auto fallback.
	semiC, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
	if got, want := est.Estimate(semiC, ImplIndex, 1, AccessScan), est.Estimate(semiC, ImplHash, 1, AccessScan); got != want {
		t.Errorf("fallback cost %v differs from hash %v", got, want)
	}
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	if ih, hh := est.Estimate(nj, ImplIndex, 1, AccessScan), est.Estimate(nj, ImplHash, 1, AccessScan); ih.Work >= hh.Work {
		t.Errorf("index nest join %v should be cheaper than hash %v", ih, hh)
	}
}

// TestChooseEnumeratesIdxJoin: the idxjoin family joins the enumeration
// exactly when a live index can serve the plan, and wins on cost.
func TestChooseEnumeratesIdxJoin(t *testing.T) {
	est, b, _, _ := indexEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	semi, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	best, all, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: semi}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	if best.Joins != ImplIndex {
		t.Errorf("chose %s, want idxjoin; candidates: %v", best.Joins, all)
	}
	seen := false
	for _, c := range all {
		if c.Joins == ImplIndex {
			seen = true
			if c.Infeasible != "" {
				t.Errorf("idxjoin candidate marked infeasible: %s", c.Infeasible)
			}
		}
	}
	if !seen {
		t.Fatal("no idxjoin candidate enumerated")
	}
	// Without an index the family stays out of the enumeration.
	semiC, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
	_, all2, err := est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: semiC}}, ImplAuto, 1, AccessAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all2 {
		if c.Joins == ImplIndex {
			t.Errorf("idxjoin enumerated without a usable index: %v", c)
		}
	}
}

// TestCompileIndexJoinExecutes compiles the idxjoin family and checks the
// operators produce exactly the hash family's results — with the fallback
// engaging on the non-indexable operator.
func TestCompileIndexJoinExecutes(t *testing.T) {
	_, b, db, _ := indexEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	for _, tc := range []struct {
		name string
		mk   func() algebra.Plan
	}{
		{"semi", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"anti", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinAnti, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"inner", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"outer", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinLeftOuter, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"nest", func() algebra.Plan {
			j, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
			return j
		}},
		{"nest-residual", func() algebra.Plan {
			j, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d AND z.c > 1"), nil, "s")
			return j
		}},
		{"fallback-no-index", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
			return j
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.mk()
			run := func(impl JoinImpl) value.Value {
				it, err := New(exec.NewCtx(db), Options{Joins: impl}).Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				v, err := exec.Collect(it)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			idx, hash := run(ImplIndex), run(ImplHash)
			if value.Key(idx) != value.Key(hash) {
				t.Errorf("idxjoin result not byte-identical to hash (idx %d rows, hash %d rows)",
					idx.Len(), hash.Len())
			}
		})
	}
}

// TestExplainRendersIdxOperators: the estimator-aware physical rendering
// names index-served operators and their index.
func TestExplainRendersIdxOperators(t *testing.T) {
	est, b, _, _ := indexEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	semi, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	out := est.Explain(semi, ImplIndex, 1, AccessScan, 0)
	if !strings.Contains(out, "IdxSemiJoin") || !strings.Contains(out, "using Z(d)") {
		t.Errorf("index operator not rendered:\n%s", out)
	}
	if Parallelizable(semi, ImplIndex) {
		t.Error("idxjoin plans must report serial execution")
	}
}
