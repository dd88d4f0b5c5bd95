// Command benchcheck compares two benchmark result files produced by
// `make bench-json` (go test -json streams) and fails when a pinned
// benchmark regressed by more than the allowed fraction. It is the guard CI
// runs against the committed BENCH_baseline.json so the performance the
// snapshot/clone engine and the batch-first submit path bought cannot
// silently rot: the default pins cover the plan path (Table3, EngineSpeedup),
// the batch pipeline (SubmitBatch, ReplayParallel) and the binary trace
// scanner (TraceScan, the .utr ingest/replay hot path).
//
// Usage:
//
//	benchcheck -baseline BENCH_baseline.json BENCH_20260730.json
//	benchcheck -baseline old.json -pin BenchmarkEngineSpeedup,BenchmarkTable3 -max-regress 0.2 new.json
//
// Benchmarks are matched by full name (e.g. BenchmarkTable3/memoright); the
// -pin list holds name prefixes, so one entry covers a family of
// sub-benchmarks. Unpinned benchmarks present in only one file are reported
// but never fail the check (the suite may legitimately grow or shrink); a
// pinned benchmark missing from the current results fails it, since a
// vanished benchmark would otherwise disable the gate silently.
//
// -ratio pins relative costs WITHIN the current file: each NUM/DEN<=LIMIT
// entry fails the check when ns/op(NUM) exceeds LIMIT times ns/op(DEN). The
// default pins the zero-fault FaultyDevice wrapper within 5% of the raw
// batch submit path — wrapping must stay free when no faults are armed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's output events benchcheck reads.
type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// parseBenchFile extracts benchmark-name -> ns/op from a go test -json
// stream. go test emits the result line ("	       1	  123456 ns/op	...")
// as an output event carrying the benchmark's name in the Test field; when
// the name is only in the output text (older streams), it is taken from
// there instead. Names are canonical (see benchName), so files recorded on
// machines with different core counts compare name for name.
func parseBenchFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action != "output" || !strings.Contains(ev.Output, "ns/op") {
			continue
		}
		text, ns, ok := parseBenchLine(ev.Output)
		if !ok {
			continue
		}
		if name := benchName(ev.Test, text); name != "" {
			out[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}

// benchName returns a benchmark's canonical name: the name go test gives
// it, without the -N GOMAXPROCS suffix go test appends to result lines when
// GOMAXPROCS > 1 (BenchmarkFoo/bar-8). The event's Test field never carries
// the suffix, so it wins; a stream without one has only the result line's
// name, whose trailing -N is stripped.
func benchName(test, line string) string {
	if test != "" {
		return test
	}
	if i := strings.LastIndexByte(line, '-'); i > 0 && !strings.Contains(line[i:], "/") {
		if _, err := strconv.Atoi(line[i+1:]); err == nil {
			return line[:i]
		}
	}
	return line
}

// parseBenchLine pulls (name, ns/op) out of one benchmark output line. The
// name field is empty when the line only carries the measurement.
func parseBenchLine(s string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(s)
	for i, f := range fields {
		if f == "ns/op" && i > 0 {
			ns, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return "", 0, false
			}
			if strings.HasPrefix(fields[0], "Benchmark") {
				name = fields[0]
			}
			return name, ns, true
		}
	}
	return "", 0, false
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline go test -json benchmark file")
		pins         = flag.String("pin", "BenchmarkEngineSpeedup,BenchmarkTable3,BenchmarkSubmitBatch,BenchmarkReplayParallel,BenchmarkTraceScan", "comma-separated benchmark-name prefixes that must not regress")
		maxRegress   = flag.Float64("max-regress", 0.20, "maximum allowed fractional ns/op regression of a pinned benchmark")
		ratios       = flag.String("ratio", "BenchmarkSubmitBatchFaultyNoop/BenchmarkSubmitBatch<=1.05", "comma-separated NUM/DEN<=LIMIT pins on ns/op ratios within the current file (empty disables)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck -baseline <old.json> <new.json>")
		os.Exit(2)
	}
	if err := run(os.Stdout, *baselinePath, flag.Arg(0), strings.Split(*pins, ","), *maxRegress, *ratios); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

// ratioPin is one NUM/DEN<=LIMIT entry: the current-file ns/op of Num must
// not exceed Limit times the current-file ns/op of Den.
type ratioPin struct {
	Num, Den string
	Limit    float64
}

// parseRatios parses the -ratio flag value. Entries are comma-separated
// NUM/DEN<=LIMIT specs; an empty value disables ratio checking.
func parseRatios(s string) ([]ratioPin, error) {
	var out []ratioPin
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		names, limit, ok := strings.Cut(spec, "<=")
		if !ok {
			return nil, fmt.Errorf("ratio %q: want NUM/DEN<=LIMIT", spec)
		}
		num, den, ok := strings.Cut(names, "/")
		if !ok || num == "" || den == "" {
			return nil, fmt.Errorf("ratio %q: want NUM/DEN<=LIMIT", spec)
		}
		max, err := strconv.ParseFloat(strings.TrimSpace(limit), 64)
		if err != nil || max <= 0 {
			return nil, fmt.Errorf("ratio %q: bad limit %q", spec, limit)
		}
		out = append(out, ratioPin{Num: strings.TrimSpace(num), Den: strings.TrimSpace(den), Limit: max})
	}
	return out, nil
}

func run(w io.Writer, baselinePath, currentPath string, pins []string, maxRegress float64, ratioSpec string) error {
	ratioPins, err := parseRatios(ratioSpec)
	if err != nil {
		return err
	}
	base, err := parseBenchFile(baselinePath)
	if err != nil {
		return err
	}
	cur, err := parseBenchFile(currentPath)
	if err != nil {
		return err
	}
	pinned := func(name string) bool {
		for _, p := range pins {
			if p = strings.TrimSpace(p); p != "" && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	fmt.Fprintf(w, "%-45s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, name := range names {
		now := cur[name]
		was, inBase := base[name]
		if !inBase {
			fmt.Fprintf(w, "%-45s %14s %14.0f %8s\n", name, "-", now, "new")
			continue
		}
		delta := (now - was) / was
		mark := ""
		if pinned(name) && delta > maxRegress {
			mark = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, was, now, delta*100))
		}
		fmt.Fprintf(w, "%-45s %14.0f %14.0f %+7.1f%%%s\n", name, was, now, delta*100, mark)
	}
	baseNames := make([]string, 0, len(base))
	for name := range base {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(w, "%-45s %14.0f %14s %8s\n", name, base[name], "-", "gone")
			if pinned(name) {
				// A vanished pinned benchmark would silently disable the
				// gate; treat it as a failure until the baseline is
				// refreshed alongside the rename/removal.
				regressions = append(regressions, fmt.Sprintf("%s: pinned benchmark missing from current results", name))
			}
		}
	}
	for _, rp := range ratioPins {
		num, okN := cur[rp.Num]
		den, okD := cur[rp.Den]
		if !okN || !okD {
			// A ratio whose operands vanished would silently disable the
			// gate, same as a missing pinned benchmark.
			regressions = append(regressions, fmt.Sprintf("ratio %s/%s: benchmark missing from current results", rp.Num, rp.Den))
			continue
		}
		ratio := num / den
		mark := ""
		if ratio > rp.Limit {
			mark = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("ratio %s/%s: %.3f exceeds limit %.3f", rp.Num, rp.Den, ratio, rp.Limit))
		}
		fmt.Fprintf(w, "ratio %s/%s: %.3f (limit %.3f)%s\n", rp.Num, rp.Den, ratio, rp.Limit, mark)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d pinned check(s) failed (max regression %.0f%%):\n  %s",
			len(regressions), maxRegress*100, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "ok: no pinned benchmark regressed more than %.0f%%\n", maxRegress*100)
	return nil
}
