package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec builds a benchmark record with the given ns/op and allocs/op.
func rec(name string, ns, allocs float64) benchRecord {
	return benchRecord{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

// TestRatioCeilings covers the ratio gate: a ratio at or under its
// ceiling passes, one over it fails, a missing side fails rather than
// passing unseen, keys match the NumCPU-stamped "(N)" names, and
// repeated records gate on their medians.
func TestRatioCeilings(t *testing.T) {
	const num, den = "BenchmarkSweepStream/gzip", "BenchmarkSweepStream/identity"
	stream := []benchRecord{rec(num, 12e6, 700), rec(den, 4e6, 160)}
	cases := []struct {
		name     string
		recs     []benchRecord
		rc       ratioCeiling
		failures int
		msg      string
	}{
		{"ok", stream, ratioCeiling{num, den, 3.5}, 0, "ok ratio " + num + " / " + den + " = 3.00 <= 3.50"},
		{"at ceiling", stream, ratioCeiling{num, den, 3}, 0, "= 3.00 <= 3.00"},
		{"exceeded", stream, ratioCeiling{num, den, 2.5}, 1, "= 3.00 exceeds ceiling 2.50"},
		{"missing numerator", stream[1:], ratioCeiling{num, den, 10}, 1, "missing from bench.json"},
		{"missing denominator", stream[:1], ratioCeiling{num, den, 10}, 1, "missing from bench.json"},
		{"typo never matches", stream, ratioCeiling{"BenchmarkSweepStream", den, 10}, 1, "missing from bench.json"},
		{"no ns/op", []benchRecord{rec(num, 12e6, 0), {Name: den, Metrics: map[string]float64{}}},
			ratioCeiling{num, den, 10}, 1, "ns/op 1.2e+07 / 0"},
		{"paren-stamped names", []benchRecord{rec("BenchmarkX/wide(8)", 2e6, 0), rec("BenchmarkX/narrow(8)", 1e6, 0)},
			ratioCeiling{"BenchmarkX/wide", "BenchmarkX/narrow", 2}, 0, "= 2.00 <= 2.00"},
		{"prefix without paren does not match", []benchRecord{rec("BenchmarkX/wider", 2e6, 0), rec("BenchmarkX/narrow", 1e6, 0)},
			ratioCeiling{"BenchmarkX/wide", "BenchmarkX/narrow", 10}, 1, "missing from bench.json"},
		{"median of repeats", []benchRecord{
			rec(num, 30e6, 0), rec(num, 12e6, 0), rec(num, 11e6, 0),
			rec(den, 4e6, 0), rec(den, 4e6, 0)},
			ratioCeiling{num, den, 3}, 0, "= 3.00 <= 3.00"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := &benchDoc{Benchmarks: c.recs}
			passes, violations := gate(doc, &budget{RatioCeilings: []ratioCeiling{c.rc}}, "bench.json")
			if len(violations) != c.failures || len(passes)+len(violations) != 1 {
				t.Errorf("passes %q, violations %q; want %d violation(s) of 1 check", passes, violations, c.failures)
			}
			if report := strings.Join(append(passes, violations...), "\n"); !strings.Contains(report, c.msg) {
				t.Errorf("report %q lacks %q", report, c.msg)
			}
		})
	}
}

// TestAllocsCeilings covers the allocs gate with the same matching
// rules: exact and "(N)"-stamped names pass under their ceiling, a
// record over it fails, and a key that matches nothing fails.
func TestAllocsCeilings(t *testing.T) {
	doc := &benchDoc{Benchmarks: []benchRecord{
		rec("BenchmarkA", 1, 10),
		rec("BenchmarkB/workers=max(2)", 1, 30),
	}}
	cases := []struct {
		name     string
		ceilings map[string]float64
		failures int
	}{
		{"ok", map[string]float64{"BenchmarkA": 10, "BenchmarkB/workers=max": 30}, 0},
		{"exceeded", map[string]float64{"BenchmarkB/workers=max": 29}, 1},
		{"missing record", map[string]float64{"BenchmarkC": 100}, 1},
		{"prefix without paren", map[string]float64{"BenchmarkB/workers=m": 100}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, violations := gate(doc, &budget{AllocsCeilings: c.ceilings}, "bench.json"); len(violations) != c.failures {
				t.Errorf("violations %q, want %d", violations, c.failures)
			}
		})
	}
}

// TestRunReadsBudgetFile: the committed JSON schema, ratio_ceilings
// included, round-trips through run.
func TestRunReadsBudgetFile(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	budgetPath := filepath.Join(dir, "budget.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bench, `{"host":{"num_cpu":2},"benchmarks":[
		{"name":"BenchmarkS/gzip","metrics":{"ns/op":9,"allocs/op":5}},
		{"name":"BenchmarkS/identity","metrics":{"ns/op":3,"allocs/op":5}}]}`)
	write(budgetPath, `{"allocs_ceilings":{"BenchmarkS/gzip":5},
		"ratio_ceilings":[{"num":"BenchmarkS/gzip","den":"BenchmarkS/identity","max":3}]}`)
	if err := run(bench, budgetPath); err != nil {
		t.Fatalf("run = %v, want a pass at ratio 3", err)
	}
	write(budgetPath, `{"ratio_ceilings":[{"num":"BenchmarkS/gzip","den":"BenchmarkS/identity","max":2.9}]}`)
	if err := run(bench, budgetPath); err == nil || !strings.Contains(err.Error(), "1 budget violation") {
		t.Fatalf("run = %v, want one violation at ratio 3 over 2.9", err)
	}
}
