package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uflip/internal/engine"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// runWorkload implements the "uflip workload" subcommand: synthetic
// application-shaped workloads and CSV block-trace replays against a
// simulated device, sharded deterministically across workers.
func runWorkload(args []string) error {
	fs := flag.NewFlagSet("uflip workload", flag.ContinueOnError)
	var (
		devKey    = fs.String("device", "", "device profile or array spec to replay against (see flashio -list)")
		capacity  = fs.Int64("capacity", 1<<30, "simulated capacity in bytes, per member for array specs")
		kind      = fs.String("kind", "oltp", "workload kind: oltp, append, zipf, bursty (or pass -trace)")
		traceFile = fs.String("trace", "", "replay a block trace (CSV offset,size,mode,gap_us or binary .utr; detected by content) instead of a synthetic workload")
		ops       = fs.Int("ops", 2048, "synthetic stream length in IOs")
		seed      = fs.Int64("seed", 42, "random seed (stream generation and per-segment device state)")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count (1 = sequential fallback; results are identical for any value)")
		segment   = fs.Int("segment", 512, "ops per replay segment (fixed segmentation keeps parallel replay deterministic)")
		window    = fs.Int("window", 256, "ios per windowed summary in the report")
		pageSize  = fs.Int64("page", 8*1024, "page size for oltp/zipf/bursty (bytes)")
		ioSize    = fs.Int64("iosize", 32*1024, "append size for the append workload (bytes)")
		target    = fs.Int64("target", 0, "target area in bytes (default: half the capacity)")
		readFrac  = fs.Float64("read-frac", 0.7, "read fraction for oltp/zipf/bursty, in [0,1]")
		streams   = fs.Int("streams", 4, "concurrent append streams for the append workload")
		zipfS     = fs.Float64("zipf-s", 1.2, "Zipf skew for the zipf workload (> 1)")
		think     = fs.Duration("think", 0, "inter-arrival gap between ops (0 = back-to-back)")
		burstOps  = fs.Int("burst", 32, "ops per burst for the bursty workload")
		burstGap  = fs.Duration("burst-gap", 100*time.Millisecond, "pause before each burst for the bursty workload")
		dumpTrace = fs.String("dump-trace", "", "also write the replayed stream as a block trace to this path (a .utr extension selects the binary form)")
		stateDir  = fs.String("statedir", "", "persistent state-cache directory: segment devices load their enforced state instead of re-filling (results are byte-identical)")
		outDir    = fs.String("out", "", "directory for JSON/CSV replay results")
		verbose   = fs.Bool("v", false, "log each completed segment")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *devKey == "" {
		return fmt.Errorf("pass -device <profile>")
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "uflip:", perr)
		}
	}()
	desc, err := profile.DescribeDevice(*devKey)
	if err != nil {
		return err
	}
	if *target <= 0 {
		*target = *capacity / 2
	}

	// Trace replays stream straight from the file when the binary .utr form
	// is passed (O(segment) memory); CSV traces and synthetic generators
	// materialize the stream as before. Both land in a workload.Source so
	// one replay path serves every input and stays byte-identical.
	var src workload.Source
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if src, err = workload.OpenTraceSource(f, st.Size(), traceLabel(*traceFile)); err != nil {
			return fmt.Errorf("%w (%s)", err, *traceFile)
		}
		if *dumpTrace != "" {
			n, err := workload.ConvertTraceFile(*traceFile, *dumpTrace, workload.FormatForPath(*dumpTrace))
			if err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d IOs)\n", *dumpTrace, n)
		}
	} else {
		gen, err := buildGenerator(*kind, generatorKnobs{
			pageSize: *pageSize, ioSize: *ioSize, target: *target,
			readFrac: *readFrac, streams: *streams, zipfS: *zipfS,
			think: *think, burstOps: *burstOps, burstGap: *burstGap,
			ops: *ops, seed: *seed,
		})
		if err != nil {
			return err
		}
		stream, err := gen.Generate()
		if err != nil {
			return err
		}
		if *dumpTrace != "" {
			if err := workload.SaveTraceAuto(*dumpTrace, stream); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d IOs)\n", *dumpTrace, len(stream))
		}
		src = workload.OpsSource(gen.Name(), stream)
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("== %s (%s)\n", *devKey, desc)
	fmt.Printf("replaying %s: %d IOs in segments of %d on %d workers\n",
		src.Name(), src.Len(), *segment, workers)
	var progress engine.ProgressFunc
	if *verbose {
		progress = func(done, total int, desc string) {
			fmt.Printf("  [%d/%d] %s\n", done, total, desc)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	shardCfg := paperexp.Config{
		Capacity: *capacity,
		Seed:     *seed,
		Pause:    time.Second,
	}
	if *stateDir != "" {
		if shardCfg.Store, err = statestore.Open(*stateDir); err != nil {
			return err
		}
	}
	factory := paperexp.ShardFactory(*devKey, shardCfg)
	res, err := workload.ReplaySource(ctx, src, factory, workload.Options{
		SegmentOps: *segment,
		Workers:    workers,
		Seed:       *seed,
		WindowOps:  *window,
		Progress:   progress,
	})
	if err != nil {
		return err
	}
	fmt.Println()
	if err := report.WorkloadSection(os.Stdout, res); err != nil {
		return err
	}
	if *outDir != "" {
		if err := saveWorkloadResults(*outDir, fileSafe(*devKey), res); err != nil {
			return err
		}
		fmt.Printf("\nresults written under %s\n", *outDir)
	}
	return nil
}

// generatorKnobs carries the flag values a synthetic generator may use.
type generatorKnobs struct {
	pageSize, ioSize, target int64
	readFrac, zipfS          float64
	streams, burstOps, ops   int
	think, burstGap          time.Duration
	seed                     int64
}

// traceLabel names a replayed trace in reports: the file name without its
// format extension, so the same stream replayed from its .csv and .utr
// forms produces byte-identical results.
func traceLabel(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func buildGenerator(kind string, k generatorKnobs) (workload.Generator, error) {
	// Flags map onto the declarative spec the experiment server also
	// accepts, so CLI and server builds of one workload are identical.
	return workload.Spec{
		Kind:         kind,
		Count:        k.ops,
		Seed:         k.seed,
		PageSize:     k.pageSize,
		IOSize:       k.ioSize,
		TargetSize:   k.target,
		ReadFraction: k.readFrac,
		ZipfS:        k.zipfS,
		Streams:      k.streams,
		Think:        k.think,
		BurstOps:     k.burstOps,
		BurstGap:     k.burstGap,
	}.Build()
}

// saveWorkloadResults persists the replay like benchmark runs: one RunRecord
// per segment (with the per-IO series) as JSON lines plus a summary CSV.
func saveWorkloadResults(dir, devKey string, res *workload.Result) error {
	records := paperexp.WorkloadRecords(res)
	if err := trace.SaveJSON(filepath.Join(dir, devKey+"-workload.jsonl"), records); err != nil {
		return err
	}
	f, err := trace.Create(filepath.Join(dir, devKey+"-workload.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteSummaryCSV(f, records)
}
