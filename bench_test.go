package uflip_test

// This file regenerates every table and figure of the uFLIP paper's
// evaluation (Section 5) as Go benchmarks. The benchmarks run the full
// methodology against simulated devices (scaled to 1 GB for speed; behaviour
// is capacity-independent) and report the headline numbers as custom
// metrics, named after what the paper reports:
//
//	BenchmarkTable3/<device>   — SR/RR/SW/RW ms, locality area, partitions...
//	BenchmarkFigure3           — Mtron RW start-up length and cost levels
//	BenchmarkFigure4           — Kingston DTI SW period
//	BenchmarkFigure5           — Mtron lingering reclamation (pause bound)
//	BenchmarkFigure6/7         — granularity curves (Memoright / DTI)
//	BenchmarkFigure8           — locality curves (Samsung/Memoright/Mtron)
//	BenchmarkAlignment/Mix/Parallelism — the Section 5.2 "other results"
//	BenchmarkDeviceState       — the Section 4.1 Samsung state anomaly
//	BenchmarkAblation*         — design-choice ablations from DESIGN.md
//
// Absolute numbers come from the calibrated simulator; the claim is shape
// fidelity against the paper (see EXPERIMENTS.md).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// benchState is the state store every benchmark in this file shares: each
// (device, capacity, seed) master is enforced once per `go test -bench`
// invocation instead of once per benchmark, without changing any result —
// cached states are byte-identical to freshly enforced ones.
var benchState struct {
	once sync.Once
	dir  string
	st   *statestore.Store
}

func benchCfg() paperexp.Config {
	cfg := paperexp.DefaultConfig()
	cfg.Capacity = 512 << 20
	benchState.once.Do(func() {
		dir, err := os.MkdirTemp("", "uflip-bench-state-")
		if err != nil {
			return // fall back to live enforcement
		}
		st, err := statestore.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return
		}
		benchState.dir, benchState.st = dir, st
	})
	cfg.Store = benchState.st
	return cfg
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchState.dir != "" {
		os.RemoveAll(benchState.dir)
	}
	os.Exit(code)
}

func prepare(b *testing.B, key string, cfg paperexp.Config) (device.Device, time.Duration) {
	b.Helper()
	dev, at, err := paperexp.Prepare(key, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return dev, at
}

// BenchmarkTable3 regenerates the paper's result-summary table, one
// sub-benchmark per representative device. The benchmark plan executes
// through the parallel engine at GOMAXPROCS workers; results are identical
// for any worker count.
func BenchmarkTable3(b *testing.B) {
	for _, p := range profile.Representatives() {
		p := p
		b.Run(p.Key, func(b *testing.B) {
			cfg := benchCfg()
			for i := 0; i < b.N; i++ {
				c, _, err := paperexp.Table3RowParallel(context.Background(), p.Key, cfg, runtime.GOMAXPROCS(0))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(c.SRms, "SR-ms")
				b.ReportMetric(c.RRms, "RR-ms")
				b.ReportMetric(c.SWms, "SW-ms")
				b.ReportMetric(c.RWms, "RW-ms")
				b.ReportMetric(float64(c.LocalityMB), "locality-MB")
				b.ReportMetric(float64(c.Partitions), "partitions")
				b.ReportMetric(c.ReverseFactor, "reverse-x")
				b.ReportMetric(c.InPlaceFactor, "inplace-x")
				b.ReportMetric(c.LargeIncrFactor, "largeincr-x")
				b.ReportMetric(c.PauseEffectMS, "pause-ms")
			}
		})
	}
}

// BenchmarkFigure3 regenerates the Mtron random-write trace: a cheap
// start-up phase (paper: ~125 IOs at ~0.4 ms) followed by oscillation.
func BenchmarkFigure3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "mtron", cfg)
		tr, err := paperexp.Figure3(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.Analysis.StartUp), "startup-ios")
		b.ReportMetric(tr.Analysis.CheapLevel*1e3, "cheap-ms")
		b.ReportMetric(tr.Analysis.ExpensiveLevel*1e3, "expensive-ms")
		b.ReportMetric(tr.Run.Summary.Mean*1e3, "mean-ms")
	}
}

// BenchmarkFigure4 regenerates the Kingston DTI sequential-write trace:
// no start-up, oscillation with a period around the flash block (paper:
// ~128 IOs).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "kingston-dti", cfg)
		tr, err := paperexp.Figure4(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.Analysis.StartUp), "startup-ios")
		b.ReportMetric(float64(tr.Analysis.Period), "period-ios")
		b.ReportMetric(tr.Run.Summary.Mean*1e3, "mean-ms")
	}
}

// BenchmarkFigure5 regenerates the pause-determination experiment on the
// Mtron: sequential reads stay slow for a while after a random-write batch
// (paper: ~3,000 reads, ~2.5 s).
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "mtron", cfg)
		rep, err := paperexp.Figure5(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.LingerIOs), "linger-ios")
		b.ReportMetric(rep.LingerTime.Seconds(), "linger-s")
		b.ReportMetric(rep.RecommendedPause.Seconds(), "pause-s")
	}
}

func granularityBench(b *testing.B, key string) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, key, cfg)
		curves, _, err := paperexp.GranularityCurves(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, base := range core.Baselines {
			for _, pt := range curves[base] {
				if pt.X == 32 { // the paper's reference size
					b.ReportMetric(pt.Y, base.String()+"32K-ms")
				}
				if pt.X == 512 {
					b.ReportMetric(pt.Y, base.String()+"512K-ms")
				}
			}
		}
	}
}

// BenchmarkFigure6 regenerates the granularity curves for the Memoright SSD
// (all reads and sequential writes linear and cheap; random writes >= 5 ms
// past the caching threshold).
func BenchmarkFigure6(b *testing.B) { granularityBench(b, "memoright") }

// BenchmarkFigure7 regenerates the granularity curves for the Kingston DTI
// (small sequential writes disproportionately expensive; random writes flat
// around 260 ms).
func BenchmarkFigure7(b *testing.B) { granularityBench(b, "kingston-dti") }

// BenchmarkFigure8 regenerates the locality curves: RW cost relative to SW
// as the random-write target grows, for Samsung, Memoright and Mtron.
func BenchmarkFigure8(b *testing.B) {
	for _, key := range []string{"samsung", "memoright", "mtron"} {
		key := key
		b.Run(key, func(b *testing.B) {
			cfg := benchCfg()
			for i := 0; i < b.N; i++ {
				dev, at := prepare(b, key, cfg)
				pts, _, err := paperexp.LocalityCurve(dev, at, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, pt := range pts {
					switch pt.X {
					case 1:
						b.ReportMetric(pt.Y, "rel-1MB")
					case 8:
						b.ReportMetric(pt.Y, "rel-8MB")
					case 128:
						b.ReportMetric(pt.Y, "rel-128MB")
					}
				}
			}
		})
	}
}

// BenchmarkAlignment regenerates the Section 5.2 alignment result: on the
// Samsung SSD, unaligned random IOs cost roughly twice as much.
func BenchmarkAlignment(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "samsung", cfg)
		d := core.StandardDefaults()
		d.IOCount = cfg.IOCount
		d.RandomTarget = dev.Capacity() / 2
		series, _, err := paperexp.SweepSeries(dev, at, cfg, core.Alignment(d, dev.Capacity()))
		if err != nil {
			b.Fatal(err)
		}
		rw := series["RW"]
		if len(rw) > 0 {
			b.ReportMetric(rw[0].Y, "aligned512B-shift-ms")
			b.ReportMetric(rw[len(rw)/2].Y, "midshift-ms")
		}
	}
}

// BenchmarkMix regenerates the Section 5.2 mix result: combining baseline
// patterns does not change overall cost much (unlike disks).
func BenchmarkMix(b *testing.B) {
	cfg := benchCfg()
	cfg.IOCount = 512
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "memoright", cfg)
		d := core.StandardDefaults()
		d.IOCount = cfg.IOCount
		d.RandomTarget = dev.Capacity() / 4
		series, _, err := paperexp.SweepSeries(dev, at, cfg, core.Mix(d, dev.Capacity()))
		if err != nil {
			b.Fatal(err)
		}
		if pts := series["SR/RR"]; len(pts) > 0 {
			b.ReportMetric(pts[0].Y, "SR-RR-1:1-ms")
		}
		if pts := series["RR/RW"]; len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].Y, "RR-RW-64:1-ms")
		}
	}
}

// BenchmarkParallelism regenerates the Section 5.2 parallelism result:
// no benefit from concurrent submission; parallel sequential writes
// degenerate toward partitioned/random cost.
func BenchmarkParallelism(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "memoright", cfg)
		d := core.StandardDefaults()
		d.IOCount = cfg.IOCount
		d.RandomTarget = dev.Capacity() / 2
		series, _, err := paperexp.SweepSeries(dev, at, cfg, core.Parallelism(d, dev.Capacity()))
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range series["SR"] {
			if pt.X == 1 {
				b.ReportMetric(pt.Y, "SR-par1-ms")
			}
			if pt.X == 16 {
				b.ReportMetric(pt.Y, "SR-par16-ms")
			}
		}
		for _, pt := range series["SW"] {
			if pt.X == 1 {
				b.ReportMetric(pt.Y, "SW-par1-ms")
			}
			if pt.X == 16 {
				b.ReportMetric(pt.Y, "SW-par16-ms")
			}
		}
	}
}

// BenchmarkDeviceState regenerates the Section 4.1 anomaly: the Samsung SSD
// writes randomly at ~1 ms out of the box, an order of magnitude faster
// than after the whole device has been written once.
func BenchmarkDeviceState(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fresh, used, err := paperexp.StateAnomaly("samsung", cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fresh, "outofbox-ms")
		b.ReportMetric(used, "randomstate-ms")
	}
}

// --- Ablations: isolate the design choices DESIGN.md calls out. ---

type ablationDevice struct {
	name string
	dev  device.Device
}

func buildAblation(b *testing.B, name string, logical int64, build func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error)) ablationDevice {
	b.Helper()
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	cost.ReadParallel = 4
	cost.ProgramParallel = 8
	cost.MergeParallel = 2
	cost.EraseParallel = 2
	arr, err := ftl.NewUniformArray(4, flash.SLC, logical+96*128*1024)
	if err != nil {
		b.Fatal(err)
	}
	top, err := build(arr, cost)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := device.NewSimDevice(device.SimConfig{
		Name: name,
		Bus:  device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, top, cost)
	if err != nil {
		b.Fatal(err)
	}
	return ablationDevice{name: name, dev: sim}
}

func pageCfg(logical int64) ftl.PageConfig {
	return ftl.PageConfig{
		LogicalBytes:    logical,
		UnitBytes:       32 * 1024, // fine-grained mapping: no read-modify-write for 32 KB IOs
		WritePoints:     4,
		ReserveBlocks:   16,
		GCBatch:         4,
		MapDirtyLimit:   64,
		MapUnitsPerPage: 128,
	}
}

func measureRW(b *testing.B, ad ablationDevice) float64 {
	b.Helper()
	end, err := methodology.EnforceRandomState(ad.dev, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := core.StandardDefaults()
	d.IOCount = 1024
	d.RandomTarget = ad.dev.Capacity() / 2
	run, err := core.ExecutePattern(ad.dev, core.RW.Pattern(d), end+5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	return run.Summary.Mean * 1e3
}

// BenchmarkAblationMapping contrasts page-granularity and block-granularity
// mapping: the reason SSD and USB-stick random writes differ by an order of
// magnitude.
func BenchmarkAblationMapping(b *testing.B) {
	const logical = 256 << 20
	for i := 0; i < b.N; i++ {
		page := buildAblation(b, "page-mapped", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewPageFTL(arr, pageCfg(logical), cost)
		})
		block := buildAblation(b, "block-mapped", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewBlockFTL(arr, ftl.BlockConfig{LogicalBytes: logical, LogBlocks: 4, MapDirtyLimit: 64, MapUnitsPerPage: 128}, cost)
		})
		b.ReportMetric(measureRW(b, page), "page-RW-ms")
		b.ReportMetric(measureRW(b, block), "block-RW-ms")
	}
}

// BenchmarkAblationWriteCache contrasts random-write cost with and without
// a write buffer when the working set fits: the locality mechanism. The FTL
// underneath maps at flash-block granularity, so uncached sub-unit random
// writes pay a read-modify-write.
func BenchmarkAblationWriteCache(b *testing.B) {
	const logical = 256 << 20
	coarse := pageCfg(logical)
	coarse.UnitBytes = 128 * 1024
	for i := 0; i < b.N; i++ {
		bare := buildAblation(b, "no-cache", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewPageFTL(arr, coarse, cost)
		})
		cached := buildAblation(b, "cache-8MB", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			inner, err := ftl.NewPageFTL(arr, coarse, cost)
			if err != nil {
				return nil, err
			}
			return ftl.NewWriteCache(inner, ftl.CacheConfig{
				CapacityBytes: 8 << 20, LineBytes: 4096, RegionBytes: 128 * 1024, Streams: 8,
			}, cost)
		})
		d := core.StandardDefaults()
		d.IOCount = 1024
		d.RandomTarget = 4 << 20 // focused area within the cache
		for _, ad := range []ablationDevice{bare, cached} {
			end, err := methodology.EnforceRandomState(ad.dev, 1)
			if err != nil {
				b.Fatal(err)
			}
			run, err := core.ExecutePattern(ad.dev, core.RW.Pattern(d), end+5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(run.Summary.Mean*1e3, ad.name+"-focusedRW-ms")
		}
	}
}

// BenchmarkAblationAsyncGC contrasts the Pause micro-benchmark with and
// without asynchronous reclamation: only the async device benefits from
// pauses between IOs.
func BenchmarkAblationAsyncGC(b *testing.B) {
	const logical = 256 << 20
	build := func(async bool, name string) ablationDevice {
		return buildAblation(b, name, logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			cfg := pageCfg(logical)
			cfg.AsyncReclaim = async
			cfg.ReserveBlocks = 64
			return ftl.NewPageFTL(arr, cfg, cost)
		})
	}
	for i := 0; i < b.N; i++ {
		for _, ad := range []ablationDevice{build(false, "sync"), build(true, "async")} {
			end, err := methodology.EnforceRandomState(ad.dev, 1)
			if err != nil {
				b.Fatal(err)
			}
			d := core.StandardDefaults()
			d.IOCount = 1024
			d.RandomTarget = ad.dev.Capacity() / 2
			p := core.RW.Pattern(d)
			p.Pause = 10 * time.Millisecond
			run, err := core.ExecutePattern(ad.dev, p, end+5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(run.Summary.Mean*1e3, ad.name+"-pausedRW-ms")
		}
	}
}

// BenchmarkAblationLogBlocks sweeps the replacement-block count of a
// block-mapped FTL and reports the partitioned sequential-write cost at 2
// and at 16 partitions: the partition-tolerance mechanism.
func BenchmarkAblationLogBlocks(b *testing.B) {
	const logical = 256 << 20
	for _, logs := range []int{2, 8} {
		logs := logs
		b.Run(deviceName("logs", logs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ad := buildAblation(b, deviceName("logs", logs), logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
					return ftl.NewBlockFTL(arr, ftl.BlockConfig{LogicalBytes: logical, LogBlocks: logs, MapDirtyLimit: 64, MapUnitsPerPage: 128}, cost)
				})
				end, err := methodology.EnforceRandomState(ad.dev, 1)
				if err != nil {
					b.Fatal(err)
				}
				d := core.StandardDefaults()
				d.IOCount = 1024
				at := end + 5*time.Second
				for _, parts := range []int{2, 8, 16} {
					p := core.SW.Pattern(d)
					p.LBA = core.Partitioned
					p.Partitions = parts
					p.TargetSize = 16 << 20
					run, err := core.ExecutePattern(ad.dev, p, at)
					if err != nil {
						b.Fatal(err)
					}
					at += run.Total + 5*time.Second
					b.ReportMetric(run.Summary.Mean*1e3, deviceName("parts", parts)+"-ms")
				}
			}
		})
	}
}

func deviceName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// --- Engine: parallel plan execution. ---

// BenchmarkSubmitBatch measures the batch-first submit path in isolation:
// 128-IO chained write batches against the Memoright profile, the device
// stack the executors drive in every plan run. ns/op is the cost of one full
// batch (bus, write cache, page FTL, flash array); the steady state runs at
// 0 allocs per batch (TestSubmitBatchZeroAlloc pins this).
func BenchmarkSubmitBatch(b *testing.B) {
	dev, err := profile.BuildDevice("memoright", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 128
	ios := make([]device.IO, batch)
	done := make([]time.Duration, batch)
	for i := range ios {
		// Rewrites focused inside the write buffer: the executors' common
		// steady state, with cache admission and periodic destaging live.
		ios[i] = device.IO{Mode: device.Write, Off: int64(i) % 16 * 128 * 1024, Size: 32 * 1024}
	}
	var at time.Duration
	submit := func() {
		for j := range done {
			done[j] = device.ChainNext
		}
		if err := dev.SubmitBatch(at, ios, done); err != nil {
			b.Fatal(err)
		}
		at = done[batch-1]
	}
	for i := 0; i < 64; i++ {
		submit() // warm past free-pool drain and cache fill
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "ios/s")
}

// BenchmarkSubmitBatchFaultyNoop is BenchmarkSubmitBatch with the device
// wrapped in a zero-fault FaultyDevice — the configuration every experiment
// runs in once fault injection exists, armed or not. The unarmed wrapper
// forwards SubmitBatch verbatim, so this must track BenchmarkSubmitBatch
// within noise; cmd/benchcheck pins the ratio below 5%.
func BenchmarkSubmitBatchFaultyNoop(b *testing.B) {
	raw, err := profile.BuildDevice("memoright", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.NewFaulty(device.FaultConfig{}, raw)
	const batch = 128
	ios := make([]device.IO, batch)
	done := make([]time.Duration, batch)
	for i := range ios {
		ios[i] = device.IO{Mode: device.Write, Off: int64(i) % 16 * 128 * 1024, Size: 32 * 1024}
	}
	var at time.Duration
	submit := func() {
		for j := range done {
			done[j] = device.ChainNext
		}
		if err := dev.SubmitBatch(at, ios, done); err != nil {
			b.Fatal(err)
		}
		at = done[batch-1]
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "ios/s")
}

// BenchmarkReplayParallel replays a 100k-op OLTP stream through the engine
// at GOMAXPROCS workers — the workload-path companion to BenchmarkTable3 for
// the batch pipeline's wall-clock. The master device is enforced once before
// the timer starts; each iteration is pure segment replay over clones.
func BenchmarkReplayParallel(b *testing.B) {
	cfg := benchCfg()
	cfg.Capacity = 256 << 20
	gen := workload.OLTP{PageSize: 8192, TargetSize: cfg.Capacity / 2, ReadFraction: 0.7, Count: 100_000, Seed: cfg.Seed}
	ops, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	factory := paperexp.ShardFactory("memoright", cfg)
	if _, _, err := factory(engine.Shard{}); err != nil { // warm the master
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.ReplayParallel(context.Background(), gen.Name(), ops, factory, workload.Options{
			SegmentOps: 12500,
			Workers:    runtime.GOMAXPROCS(0),
			Seed:       cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Total.Mean*1e3, "mean-ms")
		b.ReportMetric(res.P99.Seconds()*1e3, "p99-ms")
	}
}

// BenchmarkCloneDevice measures the per-shard device copy of the engine's
// master factory at 1 GiB, for a page-mapped stack behind a write cache
// (memoright) and a block-mapped one (kingston-dti): "fresh" allocates a new
// deep copy of the enforced master, as a worker's first shard does; "recycle"
// writes the master over a clone that has been driven away from it, as every
// later shard on that worker does. Compare ns/op, B/op and allocs/op across
// the pair.
func BenchmarkCloneDevice(b *testing.B) {
	cfg := benchCfg()
	cfg.Capacity = 1 << 30
	for _, key := range []string{"memoright", "kingston-dti"} {
		master, at, _, err := paperexp.PrepareCached(key, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(key+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				master.CloneDevice()
			}
		})
		b.Run(key+"/recycle", func(b *testing.B) {
			dst := master.CloneDevice()
			for i := int64(0); i < 2048; i++ { // dirty the clone: cache, GC, map book
				done, err := dst.Submit(at, device.IO{Mode: device.Write, Off: (i * 7919 % 8192) * 64 * 1024, Size: 16 * 1024})
				if err != nil {
					b.Fatal(err)
				}
				at = done
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = device.CloneInto(master, dst)
			}
		})
	}
}

// BenchmarkTraceScan measures binary .utr trace decoding: one iteration
// scans a 256k-record stream through trace.Scanner (header check, per-record
// validation, running CRC), the exact path server ingest and streaming
// replay take. The records/s metric is the headline — the format exists so
// million-op traces parse in a blink at O(1) memory — and benchcheck pins
// ns/op against the baseline so the scanner staying >1M records/s cannot
// silently rot.
func BenchmarkTraceScan(b *testing.B) {
	const records = 256 << 10
	gen := workload.OLTP{PageSize: 8192, TargetSize: 256 << 20, ReadFraction: 0.7, Count: records, Seed: 42}
	ops, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteUTR(&buf, ops); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := trace.NewScanner(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != records {
			b.Fatalf("scanned %d records, err %v", n, sc.Err())
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / records
	b.ReportMetric(1e9/perOp, "records/s")
}

// BenchmarkEngineSpeedup measures the wall-clock scaling of the parallel
// engine on a fixed 16-run plan against the simulated Memoright. The state
// is enforced once on a master device and every shard runs on a clone of
// it, so per-shard work is snapshot + run: comparing ns/op across the
// worker-count sub-benchmarks shows the pool's scaling up to the machine's
// core count. The merged results are byte-identical across all
// sub-benchmarks by construction (engine.TestDeterministicMerge and
// engine.TestMasterCloneVsRebuildIdentical assert this).
func BenchmarkEngineSpeedup(b *testing.B) {
	cfg := benchCfg()
	cfg.Capacity = 64 << 20
	d := core.StandardDefaults()
	d.IOCount = 512
	d.RandomTarget = cfg.Capacity / 2
	var exps []core.Experiment
	for _, sz := range []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		dd := d
		dd.IOSize = sz
		for _, base := range core.Baselines {
			exps = append(exps, core.Experiment{
				Micro: "speedup", Base: base, Param: "IOSize", Value: sz, Pattern: base.Pattern(dd),
			})
		}
	}
	plan := methodology.BuildPlan(exps, cfg.Capacity, time.Second, nil)
	factory := paperexp.ShardFactory("memoright", cfg)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%02d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
					Workers: workers,
					Seed:    cfg.Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Results) != len(exps) {
					b.Fatalf("got %d results, want %d", len(res.Results), len(exps))
				}
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}
