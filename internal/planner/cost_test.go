package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

func costEnv(t *testing.T) (*Estimator, *algebra.Builder) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 100, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 4,
	})
	return NewEstimator(db), algebra.NewBuilder(cat)
}

func TestScanCardinalityFromStats(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	c := est.Estimate(x, ImplAuto, 1, AccessScan)
	// Seal dedup may remove a few duplicates; the estimate is the exact
	// stored cardinality.
	if c.Rows <= 0 || c.Rows > 100 {
		t.Errorf("Scan(X) rows = %v", c.Rows)
	}
	if c.Work != c.Rows {
		t.Errorf("scan work should equal rows: %v", c)
	}
}

func TestSelectionReducesRows(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	sel, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	cx, cs := est.Estimate(x, ImplAuto, 1, AccessScan), est.Estimate(sel, ImplAuto, 1, AccessScan)
	if cs.Rows >= cx.Rows {
		t.Errorf("selection did not reduce rows: %v -> %v", cx.Rows, cs.Rows)
	}
	if cs.Work <= cx.Work {
		t.Error("selection work should exceed input work")
	}
}

func TestHashCheaperThanNLEstimate(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	equi, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	theta, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b < z.d"))
	ce, ct := est.Estimate(equi, ImplAuto, 1, AccessScan), est.Estimate(theta, ImplAuto, 1, AccessScan)
	if ce.Work >= ct.Work {
		t.Errorf("equi-join should cost less than theta join: %v vs %v", ce, ct)
	}
}

func TestNestJoinRowsEqualLeft(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	cx, cn := est.Estimate(x, ImplAuto, 1, AccessScan), est.Estimate(nj, ImplAuto, 1, AccessScan)
	if cn.Rows != cx.Rows {
		t.Errorf("nest join preserves left cardinality: %v vs %v", cn.Rows, cx.Rows)
	}
}

func TestSemijoinCheaperThanNestJoinEstimate(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	semi, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	cs, cn := est.Estimate(semi, ImplAuto, 1, AccessScan), est.Estimate(nj, ImplAuto, 1, AccessScan)
	if cs.Work > cn.Work {
		t.Errorf("semijoin estimate should not exceed nest join: %v vs %v", cs, cn)
	}
}

func TestEstimateCoversAllOperators(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	m, _ := b.Map(x, "x", tmql.MustParse("(b = x.b)"))
	n, _ := b.Nest(y, []string{"a"}, "g", false)
	u, _ := b.Unnest(x, "a")
	so, _ := b.SetOp(algebra.SetUnion, x, x)
	ev, _ := b.EvalSet(tmql.MustParse("{1}"))
	z, _ := b.Scan("Z")
	oj, err := b.Join(algebra.JoinLeftOuter, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []algebra.Plan{m, n, u, so, ev, oj} {
		c := est.Estimate(p, ImplAuto, 1, AccessScan)
		if c.Rows <= 0 || c.Work <= 0 {
			t.Errorf("%s: degenerate estimate %v", p.Describe(), c)
		}
	}
}

func TestAndOrSelectivity(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	a, _ := b.Select(x, "x", tmql.MustParse("x.b > 1"))
	and, _ := b.Select(x, "x", tmql.MustParse("x.b > 1 AND x.b < 5"))
	or, _ := b.Select(x, "x", tmql.MustParse("x.b > 1 OR x.b < 5"))
	ca, cAnd, cOr := est.Estimate(a, ImplAuto, 1, AccessScan), est.Estimate(and, ImplAuto, 1, AccessScan), est.Estimate(or, ImplAuto, 1, AccessScan)
	if !(cAnd.Rows < ca.Rows && ca.Rows < cOr.Rows) {
		t.Errorf("selectivity ordering broken: and=%v single=%v or=%v",
			cAnd.Rows, ca.Rows, cOr.Rows)
	}
}

func TestExplainCosts(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	out := est.ExplainCosts(nj)
	if !strings.Contains(out, "rows≈") || !strings.Contains(out, "NestJoin") {
		t.Errorf("ExplainCosts output:\n%s", out)
	}
	if !strings.Contains(out, "  Scan(X)") {
		t.Errorf("children not indented:\n%s", out)
	}
}

func TestEstimatorUnknownTable(t *testing.T) {
	est := NewEstimator(storage.NewDB())
	c := est.tableStats("GHOST")
	if c.Card != 0 {
		t.Error("unknown table should have zero card")
	}
}
