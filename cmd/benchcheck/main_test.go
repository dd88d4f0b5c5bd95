package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselineStream is a go test -json stream recorded at GOMAXPROCS=1: result
// lines carry only the measurement, the name is in the Test field.
const baselineStream = `{"Action":"output","Package":"uflip","Test":"BenchmarkEngineSpeedup/workers-01","Output":"       1\t  10000000 ns/op\t         1.000 workers\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkTable3/memoright","Output":"       1\t 400000000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkTable3/mtron","Output":"       1\t 300000000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkSubmitBatch","Output":"    2000\t      1000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkSubmitBatchFaultyNoop","Output":"    2000\t      1000 ns/op\n"}
`

// twoCoreStream is the same suite as go test -json prints it at
// GOMAXPROCS=2: the result line repeats the name with a -2 suffix, which
// also collides with sub-benchmark names that end in -NN themselves.
const twoCoreStream = `{"Action":"run","Package":"uflip","Test":"BenchmarkEngineSpeedup/workers-01"}
{"Action":"output","Package":"uflip","Test":"BenchmarkEngineSpeedup/workers-01","Output":"=== RUN   BenchmarkEngineSpeedup/workers-01\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkEngineSpeedup/workers-01","Output":"BenchmarkEngineSpeedup/workers-01-2         \t       1\t  11000000 ns/op\t         1.000 workers\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkTable3/memoright","Output":"BenchmarkTable3/memoright-2         \t       1\t 360000000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkTable3/mtron","Output":"BenchmarkTable3/mtron-2             \t       1\t 330000000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkSubmitBatch","Output":"BenchmarkSubmitBatch-2              \t    2000\t      1000 ns/op\n"}
{"Action":"output","Package":"uflip","Test":"BenchmarkSubmitBatchFaultyNoop","Output":"BenchmarkSubmitBatchFaultyNoop-2    \t    2000\t      1020 ns/op\n"}
`

var defaultPins = []string{"BenchmarkEngineSpeedup", "BenchmarkTable3", "BenchmarkSubmitBatch"}

const defaultRatio = "BenchmarkSubmitBatchFaultyNoop/BenchmarkSubmitBatch<=1.05"

func writeStream(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMultiCoreStreamMatchesBaseline: results from a 2-core machine compare
// name for name against a baseline recorded without the suffix, with real
// deltas and a working ratio pin rather than "new"/"gone" rows.
func TestMultiCoreStreamMatchesBaseline(t *testing.T) {
	base := writeStream(t, "base.json", baselineStream)
	cur := writeStream(t, "cur.json", twoCoreStream)
	var out strings.Builder
	if err := run(&out, base, cur, defaultPins, 0.20, defaultRatio); err != nil {
		t.Fatalf("clean 2-core stream failed the gate: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"BenchmarkEngineSpeedup/workers-01 ", "+10.0%",
		"BenchmarkTable3/memoright ", "-10.0%",
		"BenchmarkTable3/mtron ", "ratio BenchmarkSubmitBatchFaultyNoop/BenchmarkSubmitBatch: 1.020",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, bad := range []string{"new", "gone", "-2 "} {
		if strings.Contains(report, bad) {
			t.Errorf("report mentions %q; suffixed names did not match:\n%s", bad, report)
		}
	}
}

// TestMissingPinnedBenchmarkFails: a pinned benchmark absent from the
// current results still fails the gate once names are canonical.
func TestMissingPinnedBenchmarkFails(t *testing.T) {
	base := writeStream(t, "base.json", baselineStream)
	var kept []string
	for _, line := range strings.SplitAfter(twoCoreStream, "\n") {
		if !strings.Contains(line, "BenchmarkTable3/mtron") {
			kept = append(kept, line)
		}
	}
	cur := writeStream(t, "cur.json", strings.Join(kept, ""))
	var out strings.Builder
	err := run(&out, base, cur, defaultPins, 0.20, defaultRatio)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTable3/mtron: pinned benchmark missing") {
		t.Fatalf("missing pinned benchmark: err %v, want a missing-benchmark failure\n%s", err, out.String())
	}
}

// TestBenchName pins the canonical-name rule: the Test field wins, and a
// result line without one loses only a trailing -N.
func TestBenchName(t *testing.T) {
	for _, tc := range []struct{ test, line, want string }{
		{"BenchmarkEngineSpeedup/workers-01", "BenchmarkEngineSpeedup/workers-01-2", "BenchmarkEngineSpeedup/workers-01"},
		{"BenchmarkTable3/mtron", "", "BenchmarkTable3/mtron"},
		{"", "BenchmarkTable3/mtron-8", "BenchmarkTable3/mtron"},
		{"", "BenchmarkTraceScan", "BenchmarkTraceScan"},
		{"", "BenchmarkFoo/a-b", "BenchmarkFoo/a-b"},
	} {
		if got := benchName(tc.test, tc.line); got != tc.want {
			t.Errorf("benchName(%q, %q) = %q, want %q", tc.test, tc.line, got, tc.want)
		}
	}
}
