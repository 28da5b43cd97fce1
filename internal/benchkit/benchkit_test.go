package benchkit

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

func TestTablePrinting(t *testing.T) {
	tab := Table{Title: "demo", Headers: []string{"a", "bee"}}
	tab.Add(1, "x")
	tab.Add(2.5, 10*time.Millisecond)
	tab.Note("hello %d", 7)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, frag := range []string{"== demo ==", "a", "bee", "2.50", "10.00ms", "note: hello 7"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond: "500µs",
		2 * time.Millisecond:   "2.00ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := formatDuration(d); got != want {
			t.Errorf("formatDuration(%v) = %s, want %s", d, got, want)
		}
	}
}

func TestMeasureAndCheck(t *testing.T) {
	cat, db := datagen.Table1()
	eng := engine.New(cat, db)
	r := Measure(eng, "SELECT x FROM X x", core.StrategyNaive, planner.ImplAuto, 2)
	if r.Err != nil || r.Value.Len() != 3 {
		t.Fatalf("Measure: %+v", r)
	}
	if got := CheckAgainst(r.Value, r); got != "ok" {
		t.Errorf("CheckAgainst ok = %s", got)
	}
	other := Run{Value: value.SetOf(value.Int(1))}
	if got := CheckAgainst(r.Value, other); !strings.Contains(got, "WRONG") {
		t.Errorf("CheckAgainst wrong = %s", got)
	}
	bad := Measure(eng, "SELECT", core.StrategyNaive, planner.ImplAuto, 1)
	if bad.Err == nil {
		t.Error("Measure should surface errors")
	}
	if got := CheckAgainst(r.Value, bad); !strings.Contains(got, "ERR") {
		t.Errorf("CheckAgainst err = %s", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100*time.Millisecond, 10*time.Millisecond); got != "10.0x" {
		t.Errorf("Speedup = %s", got)
	}
	if got := Speedup(time.Second, 0); got != "inf" {
		t.Errorf("Speedup zero = %s", got)
	}
}

// TestAllExperimentsQuick runs the entire reproduction suite in quick mode —
// the same code paths cmd/repro exercises — and asserts no experiment errors
// and that every table mentions its key artifact.
func TestAllExperimentsQuick(t *testing.T) {
	wantFrags := map[string]string{
		"T1":  "dangling tuple (2,2) survives",
		"T2":  "antijoin",
		"Q12": "kept nested",
		"CB":  "the COUNT-bug pattern",
		"SB":  "SUBSETEQ",
		"S8":  "NestJoin",
		"EQ":  "identity holds",
		"B1":  "speedup",
		"B2":  "nest join + σ",
		"B3":  "kim",
		"B4":  "sort-merge",
		"B5":  "blocks",
		"B9":  "vectorized batches",
	}
	for _, exp := range All() {
		var buf bytes.Buffer
		if err := exp.Run(&buf, true); err != nil {
			t.Errorf("experiment %s failed: %v", exp.ID, err)
			continue
		}
		out := buf.String()
		if frag := wantFrags[exp.ID]; frag != "" && !strings.Contains(out, frag) {
			t.Errorf("experiment %s output missing %q:\n%s", exp.ID, frag, out)
		}
		if strings.Contains(out, "WRONG") && exp.ID != "CB" && exp.ID != "SB" && exp.ID != "B3" {
			t.Errorf("experiment %s reports an unexpected WRONG:\n%s", exp.ID, out)
		}
	}
}

// TestB5RowOrder pins B5's row order: per size, the two-block chain and then
// the three-block one. A two-entry Go map iterates in either order, the
// reversed one in roughly one run of eight, so many runs guard against an
// order that only holds by chance.
func TestB5RowOrder(t *testing.T) {
	for run := 0; run < 40; run++ {
		var buf bytes.Buffer
		if err := RunB5(&buf, true); err != nil {
			t.Fatal(err)
		}
		var blocks []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "30" {
				blocks = append(blocks, f[1])
			}
		}
		if strings.Join(blocks, ",") != "2,3" {
			t.Fatalf("run %d: B5 rows have blocks %v, want [2 3]:\n%s", run, blocks, buf.String())
		}
	}
}
