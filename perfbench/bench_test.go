package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/engine"
)

func setupSmall(t *testing.T, name string, seed int64) world {
	t.Helper()
	for _, d := range workloads {
		if d.name == name {
			var st setupTimes
			w, err := d.setup(seed, true, &st)
			if err != nil {
				t.Fatalf("%s: set-up: %v", name, err)
			}
			t.Cleanup(func() { w.close() })
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

func opSequence(w world, n int) []string {
	var seq []string
	for c := 0; c < w.clients(); c++ {
		for i := 0; i < n; i++ {
			seq = append(seq, w.describe(c, i))
		}
	}
	return seq
}

func TestSameSeedSameOps(t *testing.T) {
	for _, d := range workloads {
		a := opSequence(setupSmall(t, d.name, 7), 400)
		b := opSequence(setupSmall(t, d.name, 7), 400)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two op sequences", d.name)
		}
		if d.name == "nested_report" {
			continue // the report's queries are fixed; the seed varies the data
		}
		if slices.Equal(a, opSequence(setupSmall(t, d.name, 8), 400)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", d.name)
		}
	}
}

func TestReadWriteOneMissPerRound(t *testing.T) {
	w := setupSmall(t, "read_write", 3)
	if err := w.oracle(); err != nil {
		t.Fatal(err)
	}
	start := w.sizes()["Y"]
	r := newRunner(w)
	for i := 0; i < 3; i++ {
		p := r.phase(100*time.Millisecond, nil)
		if p.failed > 0 {
			t.Fatal(p.firstErr)
		}
		writes, reads := len(p.ofKind(true)), len(p.ofKind(false))
		rounds := uint64(writes)
		if rounds == 0 || rounds%2 != 0 || reads != rwReads*writes {
			t.Fatalf("%d writes and %d reads do not make whole round pairs", writes, reads)
		}
		if p.cache.Misses != rounds || p.cache.Hits != (rwReads-1)*rounds {
			t.Errorf("%d rounds: %d plan-cache misses and %d hits, want %d and %d",
				rounds, p.cache.Misses, p.cache.Hits, rounds, (rwReads-1)*rounds)
		}
		tab, _ := w.engine().DB().Table("Y")
		if tab.Len() != start {
			t.Errorf("|Y| = %d after whole round pairs, want %d", tab.Len(), start)
		}
	}
	if err := w.check(); err != nil {
		t.Error(err)
	}
}

func TestPointHitRatioFollowsSchedule(t *testing.T) {
	w := setupSmall(t, "point_http", 5)
	if err := w.oracle(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(w)
	from := slices.Clone(r.seq)
	p := r.phase(300*time.Millisecond, nil)
	if p.failed > 0 {
		t.Fatal(p.firstErr)
	}
	var hot, tail uint64
	for c := range r.seq {
		for seq := from[c]; seq < r.seq[c]; seq++ {
			if seq%4 == 3 {
				tail++
			} else {
				hot++
			}
		}
	}
	if p.cache.Hits != hot || p.cache.Misses != tail {
		t.Errorf("%d hits and %d misses, want %d hot-key hits and %d tail-key misses",
			p.cache.Hits, p.cache.Misses, hot, tail)
	}
}

// TestNestedMatchesNaive checks the report's queries against the naive
// evaluator, the specification, which is too slow for the full-size run.
func TestNestedMatchesNaive(t *testing.T) {
	w := setupSmall(t, "nested_report", 11)
	if err := w.oracle(); err != nil {
		t.Fatal(err)
	}
	eng := w.engine()
	for i, q := range nestedQueries {
		res, err := eng.Query(q.src, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		b, err := json.Marshal(res.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, w.(*nestedWorld).want[i]) {
			t.Errorf("%s: the naive and outerjoin results differ", q.name)
		}
		if res.Value.Len() == 0 {
			t.Errorf("%s: empty result", q.name)
		}
	}
	if _, err := w.op(0, 0, nil); err != nil {
		t.Error(err)
	}
}

// TestMetricsEmitted runs every workload briefly, untraced and traced, and
// checks that it passes its own checks and emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestMetricsEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(m.listed) != len(m.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(m.listed), len(m.defs))
		}
		for i, d := range m.defs {
			if l := m.listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("BENCHMARK.json has %+v where the benchmark has %+v", l, d)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		if i < len(workloads) && wl.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark's %s", i, wl.Name, workloads[i].name)
		}
	}
	for _, d := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			rep, err := run(config{workload: d.name, seed: 1, seconds: 0.4, trace: traced, small: true, spanDir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", d.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					d.name, traced, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", d.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", d.name, traced, m.name, got, m.unit)
				}
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", d.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestTracedSpansNest checks the span tree of a traced run: one root per
// op, children inside their parents, the layer spans each workload should
// exercise present.
func TestTracedSpansNest(t *testing.T) {
	want := map[string][]string{
		"nested_report": {"tmql.parse", "tmql.bind", "engine.plan_hit", "planner.compile", "exec.run", "value.encode"},
		"point_http":    {"engine.plan_hit", "engine.plan_miss", "server.roundtrip"},
		"read_write":    {"storage.insert", "storage.delete", "stats.recollect", "engine.plan_miss", "engine.plan_hit"},
	}
	for name, spans := range want {
		w := setupSmall(t, name, 2)
		if err := w.oracle(); err != nil {
			t.Fatal(err)
		}
		r := newRunner(w)
		trs := newTracers(w)
		p := r.phase(200*time.Millisecond, trs)
		if p.failed > 0 {
			t.Fatalf("%s: %v", name, p.firstErr)
		}
		self, err := selfTimes(trs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(self["op"]); got != p.ops() {
			t.Errorf("%s: %d root spans for %d ops", name, got, p.ops())
		}
		for _, s := range spans {
			if len(self[s]) == 0 {
				t.Errorf("%s: no %s span", name, s)
			}
		}
	}
}
