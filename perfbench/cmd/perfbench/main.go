// Command perfbench is the repository's end-to-end benchmark driver. It runs
// one workload against a built uflip binary and prints one JSON result line:
//
//	perfbench -bin .bench_build/bin/uflip -work .bench_build/work \
//	    --workload table3 --seed 1 --seconds 20 --trace 0
//
// Workloads (see perfbench/README.md for why each exists):
//
//	table3         the full nine-micro methodology on the seven representative
//	               devices at 1 GiB, one `uflip -device D -parallel 2` each
//	replay_oltp1m  `uflip workload` replaying a seeded 1,000,000-op OLTP .utr
//	serve_mix      a closed loop of two clients against `uflip serve`
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a separate
// in-process run through timing wrappers (package perfbench/layers) on one
// engine worker, next to the untraced run it is checked and compared
// against. Either way every output the program writes is digested and
// checked; a mismatch counts as failed operations and clears "correct".
//
// perfbench/run.sh builds the binaries and calls this driver; run it from the
// repository root.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"uflip/internal/trace"
	"uflip/perfbench/benchstats"
)

// defaultSeed is the seed the committed digests were recorded with.
const defaultSeed = 42

// runBudget bounds one invocation below the 180 s a run may take.
const runBudget = 170 * time.Second

// committedDigests holds, per workload, the output digest on defaultSeed. A
// change that means to alter simulated output updates it and says so.
//
//go:embed digests.json
var committedDigests []byte

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of --trace 0, reported by every workload. For the
// CLI workloads a "job" is one result the program reports (a plan run or a
// replay segment); for serve_mix it is one daemon job.
var endToEnd = []metricSpec{
	{"sim_ios_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"job_rtt_p50_ms", "ms"},
	{"job_rtt_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"upload_p50_ms", "ms"},
	{"store_mb", "MiB"},
}

// perLayer are the metrics of --trace 1, reported by every workload; a layer
// the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"engine.clone_ms", "ms"},
	{"engine.clones", "count"},
	{"engine.clone_alloc_mb", "MiB"},
	{"engine.self_ms", "ms"},
	{"device.service_ms", "ms"},
	{"device.ios", "count"},
	{"device.batches", "count"},
	{"device.ns_per_io", "ns"},
	{"ftl.cache_ms", "ms"},
	{"ftl.map_ms", "ms"},
	{"ftl.map_ns_per_flash_op", "ns"},
	{"ftl.cache_hit_ratio", "ratio"},
	{"ftl.cache_destages", "count"},
	{"ftl.write_amp", "ratio"},
	{"ftl.merges", "count"},
	{"ftl.async_reclaims", "count"},
	{"flash.reads", "count"},
	{"flash.programs", "count"},
	{"flash.erases", "count"},
	{"methodology.setup_ms", "ms"},
	{"trace.segment_ms", "ms"},
	{"trace.records_per_s", "1/s"},
	{"statestore.load_ms", "ms"},
	{"statestore.state_mb", "MiB"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"server.admit_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.queue_p99_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.notify_ms", "ms"},
	{"server.fetch_ms", "ms"},
	{"jobstore.mb_per_job", "MiB"},
	{"traced.wall_s", "s"},
	{"traced.overhead_pct", "%"},
}

// options are the command-line knobs of one run.
type options struct {
	bin      string // the uflip binary
	work     string // scratch root; each run uses and removes a subdirectory
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	problems          []string           // failed checks, for stderr
	metrics           map[string]float64 // e2e or per-layer, by trace mode
	knobs             map[string]any     // every knob passed, for the env record
}

// fail records a failed check worth n failed operations.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += max(n, 1)
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var traceFlag int
	flag.StringVar(&o.bin, "bin", "", "uflip binary to drive")
	flag.StringVar(&o.work, "work", "", "scratch directory (a per-run subdirectory is created and removed)")
	flag.StringVar(&o.workload, "workload", "", "table3, replay_oltp1m or serve_mix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds (serve_mix runs a fixed job count instead)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from the traced run")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.bin == "" || o.work == "" {
		return errors.New("pass -bin and -work (perfbench/run.sh does)")
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("uflip binary: %w", err)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", o.seconds)
	}
	workloads := map[string]func(context.Context, options) (*result, error){
		"table3":        runTable3,
		"replay_oltp1m": runReplay,
		"serve_mix":     runServeMix,
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (table3, replay_oltp1m, serve_mix)", o.workload)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.work = dir

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := fn(ctx, o)
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	out := map[string]any{}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, s.name)
		}
		out[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	env, err := json.Marshal(map[string]any{"env": environment(o, res.knobs)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(env))
	fmt.Println(string(line))
	return nil
}

// environment is the record printed before the result: what ran, where,
// and with which knobs, so a moved knob is visible next to the numbers.
func environment(o options, knobs map[string]any) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit(),
		"knobs":      knobs,
	}
}

// commit names the source under test: the git HEAD when the checkout is a
// repository, otherwise a digest of the Go sources and go.mod.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// committedDigest returns the committed digest of an output on the default
// seed, and whether one applies to this run.
func committedDigest(o options, name string) (string, bool) {
	if o.seed != defaultSeed {
		return "", false
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		panic(fmt.Sprintf("embedded digests.json: %v", err)) // only a bad edit of the file gets here
	}
	d, ok := all[o.workload][name]
	return d, ok
}

// checkCommitted compares an output digest with the committed one and
// records it with the run's knobs.
func checkCommitted(o options, res *result, name, got string, ops int) {
	digests, _ := res.knobs["digests"].(map[string]string)
	if digests == nil {
		digests = map[string]string{}
		res.knobs["digests"] = digests
	}
	digests[name] = got
	if want, ok := committedDigest(o, name); ok && want != got {
		res.fail(ops, "%s: digest %s differs from the committed digest %s for seed %d", name, got, want, defaultSeed)
	}
}

// recordsDigest digests the summary CSV of in-process records, the bytes the
// CLI's -out and the daemon's /csv write for them.
func recordsDigest(records []trace.RunRecord) (string, error) {
	var b bytes.Buffer
	if err := trace.WriteSummaryCSV(&b, records); err != nil {
		return "", err
	}
	return digest(b.Bytes()), nil
}

// digestSet digests a set of named digests in name order.
func digestSet(digests map[string]string) string {
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, digests[name])
	}
	return digest([]byte(b.String()))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// csvIOs sums the "n" column (simulated IOs per run) of a summary CSV and
// counts its rows.
func csvIOs(b []byte) (ios int64, rows int, err error) {
	recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return 0, 0, err
	}
	if len(recs) == 0 {
		return 0, 0, errors.New("empty summary CSV")
	}
	col := slices.Index(recs[0], "n")
	if col < 0 {
		return 0, 0, errors.New("summary CSV has no n column")
	}
	for _, rec := range recs[1:] {
		n, err := strconv.ParseInt(rec[col], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("summary CSV n column: %w", err)
		}
		ios += n
	}
	return ios, len(recs) - 1, nil
}

// dirMB returns the size of the regular files under the given directories.
func dirMB(dirs ...string) float64 {
	var total int64
	for _, dir := range dirs {
		_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				if info, err := d.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return float64(total) / (1 << 20)
}

// runtimeSample reads the driver's cumulative allocation and GC counters.
func runtimeSample() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// tracedRun times an in-process traced run and adds the runtime figures and
// the overhead against the untraced in-process run of the same work.
func tracedRun(m map[string]float64, plainWall time.Duration, traced func() error) error {
	runtime.GC()
	a0, g0 := runtimeSample()
	start := time.Now()
	if err := traced(); err != nil {
		return err
	}
	wall := time.Since(start)
	a1, g1 := runtimeSample()
	m["runtime.alloc_mb"] = float64(a1-a0) / (1 << 20)
	m["runtime.gc_cycles"] = float64(g1 - g0)
	m["traced.wall_s"] = wall.Seconds()
	m["traced.overhead_pct"] = 100 * (wall.Seconds()/plainWall.Seconds() - 1)
	return nil
}

// percentile applies the benchstats tail rule; a workload that cannot meet
// it fails loudly rather than print a tail from too few samples.
func percentile(xs []float64, p float64, what string) (float64, error) {
	v, err := benchstats.Percentile(xs, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return v, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
