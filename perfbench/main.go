// Command perfbench is the tmdb benchmark: it runs one workload from a seed
// for a fixed time, checks every result, and prints its metrics as the last
// line of standard output, a JSON object with the keys correct, attempted,
// failed and metrics. Untraced runs (-trace 0) report the end-to-end
// metrics; traced runs (-trace 1) report per-layer metrics from spans
// recorded around the calls into each layer.
//
//	perfbench -workload nested_report|point_http|read_write -seed N -seconds S -trace 0|1
//
// run.sh builds and runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload to run: nested_report, point_http or read_write")
	seed := flag.Int64("seed", 1, "seed of the generated data and op sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := run(config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		rev:      revision(),
		spanDir:  ".bench_build/spans",
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
