package main

// metricDef names one reported metric. The lists mirror BENCHMARK.json;
// the benchmark's test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p90_us", "us", "lower"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are reported by traced runs. README.md gives, for each, the
// end-to-end metric it should move and the workload it moves on.
var perLayer = []metricDef{
	{"tmql.parse_us", "us", "lower"},
	{"tmql.bind_us", "us", "lower"},
	{"stats.recollect_us", "us", "lower"},
	{"engine.plan_hit_us", "us", "lower"},
	{"engine.plan_miss_us", "us", "lower"},
	{"planner.compile_us", "us", "lower"},
	{"exec.run_us", "us", "lower"},
	{"value.encode_us", "us", "lower"},
	{"server.roundtrip_us", "us", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"storage.insert_us", "us", "lower"},
	{"storage.delete_us", "us", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.cache_hits", "count", "higher"},
	{"engine.cache_misses", "count", "lower"},
	{"engine.cache_evictions_per_kop", "count/kop", "lower"},
	{"engine.cache_invalidations_per_kop", "count/kop", "lower"},
	{"exec.eval_steps_per_op", "count/op", "lower"},
	{"exec.morsels_per_op", "count/op", "lower"},
	{"exec.stolen_frac", "ratio", "lower"},
	{"exec.busy_frac", "ratio", "higher"},
	{"runtime.alloc_kb_per_op", "kB/op", "lower"},
	{"runtime.mallocs_per_op", "count/op", "lower"},
	{"runtime.gc_per_kop", "count/kop", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"setup.datagen_s", "s", "lower"},
	{"setup.index_s", "s", "lower"},
	{"setup.analyze_s", "s", "lower"},
	{"setup.warmup_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// spanMetrics maps a span name to the per-layer metric of its self time.
var spanMetrics = map[string]string{
	"tmql.parse":       "tmql.parse_us",
	"tmql.bind":        "tmql.bind_us",
	"stats.recollect":  "stats.recollect_us",
	"engine.plan_hit":  "engine.plan_hit_us",
	"engine.plan_miss": "engine.plan_miss_us",
	"planner.compile":  "planner.compile_us",
	"exec.run":         "exec.run_us",
	"value.encode":     "value.encode_us",
	"server.roundtrip": "server.roundtrip_us",
	"storage.insert":   "storage.insert_us",
	"storage.delete":   "storage.delete_us",
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}
