package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
)

// nested_report: one op is a report that runs the paper's six nested-query
// classes in a fixed order on the synthetic X/Y/Z data, a quarter of whose
// outer tuples dangle. Timing whole reports gives one homogeneous sample
// per op. After warm-up every plan is a cache hit, so exec, value and the
// garbage collector do almost all the work and the server is idle.

var nestedQueries = []struct{ name, src string }{
	{"in_semijoin", `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
	{"notin_antijoin", `SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`},
	{"subseteq_nestjoin", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`},
	// A dangling x has an empty subquery and COUNT 0 < 3, so it belongs to
	// the answer: the tuples the COUNT bug loses.
	{"count_bug", `SELECT x FROM X x WHERE COUNT(SELECT y.d FROM Y y WHERE x.b = y.b) < 3`},
	{"select_nesting", `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`},
	{"three_block", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`},
}

// nestedWarmReports run during set-up: the first plans every query, the
// second runs on cached plans.
const nestedWarmReports = 2

type nestedWorld struct {
	eng  *engine.Engine
	spec datagen.Spec
	// want is each query's JSON result under the outerjoin strategy.
	want [][]byte
}

func nestedSpec(seed int64, small bool) datagen.Spec {
	if small {
		return datagen.Spec{NX: 60, NY: 120, NZ: 90, Keys: 12, DanglingFrac: 0.25, SetAttrCard: 3, Seed: seed}
	}
	return datagen.Spec{NX: 1000, NY: 2000, NZ: 1500, Keys: 100, DanglingFrac: 0.25, SetAttrCard: 3, Seed: seed}
}

func setupNested(seed int64, small bool, st *setupTimes) (world, error) {
	spec := nestedSpec(seed, small)
	t := time.Now()
	cat, db := datagen.XYZ(spec)
	st.datagen = time.Since(t)
	eng := engine.New(cat, db)
	t = time.Now()
	eng.Analyze()
	st.analyze = time.Since(t)
	w := &nestedWorld{eng: eng, spec: spec}
	t = time.Now()
	for i := 0; i < nestedWarmReports; i++ {
		if _, err := w.op(0, i, nil); err != nil {
			return nil, err
		}
	}
	st.warmup = time.Since(t)
	return w, nil
}

func (w *nestedWorld) clients() int { return 1 }
func (w *nestedWorld) unit() int    { return 1 }
func (w *nestedWorld) warmOps() int { return nestedWarmReports }

func (w *nestedWorld) describe(c, seq int) string {
	names := make([]string, len(nestedQueries))
	for i, q := range nestedQueries {
		names[i] = q.name
	}
	return strings.Join(names, ",")
}

func (w *nestedWorld) op(c, seq int, tr *tracer) (bool, error) {
	for i, q := range nestedQueries {
		b, err := query(w.eng, q.src, tr)
		if err != nil {
			return false, fmt.Errorf("%s: %w", q.name, err)
		}
		if w.want != nil && !bytes.Equal(b, w.want[i]) {
			return false, fmt.Errorf("%s: result differs from the outerjoin strategy's", q.name)
		}
	}
	return false, nil
}

// oracle evaluates each query with the strategy pinned to outerjoin + ν*,
// a translation independent of the one the cost-based planner picks.
func (w *nestedWorld) oracle() error {
	w.want = make([][]byte, len(nestedQueries))
	for i, q := range nestedQueries {
		res, err := w.eng.Query(q.src, engine.Options{Strategy: core.StrategyOuterJoin})
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if w.want[i], err = json.Marshal(res.Value); err != nil {
			return err
		}
	}
	return nil
}

func (w *nestedWorld) check() error { return nil }

func (w *nestedWorld) engine() *engine.Engine { return w.eng }

func (w *nestedWorld) sizes() map[string]int {
	return map[string]int{"X": w.spec.NX, "Y": w.spec.NY, "Z": w.spec.NZ, "keys": w.spec.Keys}
}

func (w *nestedWorld) close() error { return nil }
