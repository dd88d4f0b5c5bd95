package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
	"uflip/perfbench/benchstats"
	"uflip/perfbench/layers"
)

const (
	gib         = int64(1) << 30
	cliParallel = 2   // -parallel of every CLI run: one per core of a 2-core box
	segmentOps  = 512 // the CLI's default -segment, passed explicitly
	replayOps   = 1_000_000
	replayDev   = "memoright"
	// Cold state fills per run; setup_s is their median. A replay fill is
	// one device (~0.1 s), so it takes more of them to steady the median.
	table3SetupReps = 5
	replaySetupReps = 11
)

// cliRun is one uflip invocation observed from outside.
type cliRun struct {
	wall      time.Duration
	first     time.Duration // start → first result line
	intervals []float64     // ms between consecutive result lines
	results   int
	maxRSSMB  float64
}

// runCLI runs uflip with -v, timestamping each progress line ("[k/N] id",
// printed as a plan run or replay segment completes).
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	var r cliRun
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	sc := bufio.NewScanner(stdout)
	last := time.Duration(0)
	for sc.Scan() {
		line := bytes.TrimLeft(sc.Bytes(), " ")
		if len(line) == 0 || line[0] != '[' {
			continue
		}
		at := time.Since(start)
		if r.results == 0 {
			r.first = at
		} else {
			r.intervals = append(r.intervals, ms(at-last))
		}
		last = at
		r.results++
	}
	err = cmd.Wait()
	r.wall = time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return r, fmt.Errorf("uflip %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return r, nil
}

// fillStates fills a fresh -statedir with the enforced states of the given
// devices reps times, timing each cold fill, and returns the last directory
// (kept warm for the measured runs) and the median fill time.
func fillStates(ctx context.Context, o options, devices []string, reps int) (string, float64, error) {
	var times []float64
	var dir string
	for rep := 0; rep < reps; rep++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", 0, err
			}
		}
		dir = filepath.Join(o.work, fmt.Sprintf("state-%d", rep))
		start := time.Now()
		for _, d := range devices {
			// A one-op replay enforces (and saves) the same state a plan or
			// replay with this capacity and seed loads.
			if _, err := runCLI(ctx, o.bin, "workload", "-device", d, "-capacity", strconv.FormatInt(gib, 10),
				"-seed", strconv.FormatInt(o.seed, 10), "-ops", "1", "-statedir", dir); err != nil {
				return "", 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return dir, benchstats.Median(times), nil
}

// stateLoads times statestore.Load of each device's warm state on a plain
// profile.BuildDevice, the way every CLI run and daemon job restores it.
func stateLoads(dir string, devices []string, capacity, seed int64) (loadMS float64, err error) {
	store, err := statestore.Open(dir)
	if err != nil {
		return 0, err
	}
	for _, d := range devices {
		dev, err := profile.BuildDevice(d, capacity)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, hit, err := store.Load(paperexp.StateKey(d, paperexp.Config{Capacity: capacity, Seed: seed}), dev)
		loadMS += ms(time.Since(start))
		if err != nil {
			return 0, err
		}
		if !hit {
			return 0, fmt.Errorf("state of %s (seed %d) missing from %s", d, seed, dir)
		}
	}
	return loadMS, nil
}

// passStats accumulates what the CLI workloads report per measured pass. A
// CLI job is one product a user asks for: a whole Table 3 (seven uflip
// runs) or one replay. job_rtt_p50_ms is its median wall time. A run holds
// too few jobs for a p99 of their own, so job_rtt_p99_ms is the p99 gap
// between consecutive results (plan runs, replay segments) on the -v
// progress stream: the longest a user waits for the next result. The input
// hand-off, upload_p50_ms, is the time from a uflip start to its first
// result.
type passStats struct {
	simIOsPerS, jobsPerS, rssMB, storeMB []float64
	walls, intervals, firsts             []float64
}

func (p *passStats) add(wall time.Duration, simIOs int64, rssMB, storeMB float64) {
	p.walls = append(p.walls, ms(wall))
	p.simIOsPerS = append(p.simIOsPerS, float64(simIOs)/wall.Seconds())
	p.jobsPerS = append(p.jobsPerS, 1/wall.Seconds())
	p.rssMB = append(p.rssMB, rssMB)
	p.storeMB = append(p.storeMB, storeMB)
}

func (p *passStats) observe(r cliRun) {
	p.intervals = append(p.intervals, r.intervals...)
	p.firsts = append(p.firsts, ms(r.first))
}

func (p *passStats) metrics(setupS float64) (map[string]float64, error) {
	p99, err := percentile(p.intervals, 99, "job_rtt_p99_ms")
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_ios_per_s":  benchstats.Median(p.simIOsPerS),
		"peak_rss_mb":    benchstats.Median(p.rssMB),
		"setup_s":        setupS,
		"job_rtt_p50_ms": benchstats.Median(p.walls),
		"job_rtt_p99_ms": p99,
		"jobs_per_s":     benchstats.Median(p.jobsPerS),
		"upload_p50_ms":  benchstats.Median(p.firsts),
		"store_mb":       benchstats.Median(p.storeMB),
	}, nil
}

// zeroUnused gives the layers a workload does not exercise an explicit 0.
func zeroUnused(m map[string]float64) {
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
}

func representatives() []string {
	var keys []string
	for _, p := range profile.Representatives() {
		keys = append(keys, p.Key)
	}
	return keys
}

// runTable3 runs the full methodology on every representative device, once
// per device per pass, until --seconds have passed.
func runTable3(ctx context.Context, o options) (*result, error) {
	devices := representatives()
	seed := strconv.FormatInt(o.seed, 10)
	res := &result{knobs: map[string]any{
		"devices": devices, "capacity": gib, "parallel": cliParallel, "iocount": paperexp.DefaultConfig().IOCount,
		"seed": o.seed, "setup_reps": table3SetupReps,
	}}
	stateDir, setupS, err := fillStates(ctx, o, devices, table3SetupReps)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(o.work, "out")
	digests := map[string]string{}
	rows := map[string]int{}
	var passes passStats
	// pass runs every device once and checks its CSV against the first pass.
	pass := func() error {
		if err := os.RemoveAll(out); err != nil {
			return err
		}
		start := time.Now()
		var simIOs int64
		var rss float64
		for _, d := range devices {
			r, err := runCLI(ctx, o.bin, "-device", d, "-capacity", strconv.FormatInt(gib, 10), "-seed", seed,
				"-parallel", strconv.Itoa(cliParallel), "-statedir", stateDir, "-out", out, "-v")
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				res.attempted++
				res.fail(1, "%s: %v", d, err)
				continue
			}
			b, err := os.ReadFile(filepath.Join(out, d+".csv"))
			if err != nil {
				return err
			}
			n, nrows, err := csvIOs(b)
			if err != nil {
				return fmt.Errorf("%s: %w", d, err)
			}
			res.attempted += nrows
			sum := digest(b)
			if prev, ok := digests[d]; !ok {
				digests[d], rows[d] = sum, nrows
			} else if prev != sum {
				res.fail(nrows, "%s: CSV digest changed between passes (%s, then %s)", d, prev, sum)
			}
			simIOs += n
			rss = max(rss, r.maxRSSMB)
			passes.observe(r)
		}
		passes.add(time.Since(start), simIOs, rss, dirMB(stateDir, out))
		return nil
	}

	if !o.trace {
		start := time.Now()
		for time.Since(start) < time.Duration(o.seconds)*time.Second {
			if err := pass(); err != nil {
				return nil, err
			}
		}
		res.knobs["passes"] = len(passes.simIOsPerS)
		if res.metrics, err = passes.metrics(setupS); err != nil {
			return nil, err
		}
		// The single-worker traced run of one device, rotating with the
		// seed, must reproduce the CLI's CSV byte for byte.
		d := devices[int(uint64(o.seed)%uint64(len(devices)))]
		records, err := layers.NewRecorder().RunPlan(ctx, layers.PlanRequest{Device: d, Capacity: gib, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		checkDigest(res, d+" traced", digests[d], records, rows[d])
		res.knobs["traced_check_device"] = d
	} else {
		if err := pass(); err != nil {
			return nil, err
		}
		m := map[string]float64{}
		start := time.Now()
		for _, d := range devices {
			if _, err := (*layers.Recorder)(nil).RunPlan(ctx, layers.PlanRequest{Device: d, Capacity: gib, Seed: o.seed}); err != nil {
				return nil, err
			}
		}
		plainWall := time.Since(start)
		rec := layers.NewRecorder()
		err := tracedRun(m, plainWall, func() error {
			for _, d := range devices {
				records, err := rec.RunPlan(ctx, layers.PlanRequest{Device: d, Capacity: gib, Seed: o.seed})
				if err != nil {
					return err
				}
				checkDigest(res, d+" traced", digests[d], records, rows[d])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, v := range rec.Metrics() {
			m[k] = v
		}
		if m["statestore.load_ms"], err = stateLoads(stateDir, devices, gib, o.seed); err != nil {
			return nil, err
		}
		m["statestore.state_mb"] = dirMB(stateDir)
		zeroUnused(m)
		res.metrics = m
	}
	for _, d := range devices {
		checkCommitted(o, res, d, digests[d], rows[d])
	}
	return res, nil
}

// checkDigest compares in-process records with a CLI output digest.
func checkDigest(res *result, what, want string, records []trace.RunRecord, ops int) {
	got, err := recordsDigest(records)
	if err != nil {
		res.fail(ops, "%s: %v", what, err)
		return
	}
	if got != want {
		res.fail(ops, "%s: CSV digest %s differs from the CLI's %s", what, got, want)
	}
}

// runReplay replays a seeded 1M-op OLTP .utr trace through `uflip workload`
// until --seconds have passed.
func runReplay(ctx context.Context, o options) (*result, error) {
	seed := strconv.FormatInt(o.seed, 10)
	res := &result{knobs: map[string]any{
		"device": replayDev, "capacity": gib, "parallel": cliParallel, "segment": segmentOps,
		"ops": replayOps, "read_fraction": 0.7, "page": 8 << 10, "seed": o.seed, "setup_reps": replaySetupReps,
	}}
	gen, err := workload.Spec{Kind: "oltp", Count: replayOps, Seed: o.seed, PageSize: 8 << 10,
		ReadFraction: 0.7, TargetSize: gib / 2}.Build()
	if err != nil {
		return nil, err
	}
	ops, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(o.work, "oltp1m.utr")
	if err := workload.SaveUTR(tracePath, ops); err != nil {
		return nil, err
	}
	ops = nil
	stateDir, setupS, err := fillStates(ctx, o, []string{replayDev}, replaySetupReps)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(o.work, "out")
	var want string
	var passes passStats
	replay := func() error {
		if err := os.RemoveAll(out); err != nil {
			return err
		}
		r, err := runCLI(ctx, o.bin, "workload", "-device", replayDev, "-capacity", strconv.FormatInt(gib, 10),
			"-trace", tracePath, "-seed", seed, "-parallel", strconv.Itoa(cliParallel),
			"-segment", strconv.Itoa(segmentOps), "-statedir", stateDir, "-out", out, "-v")
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.attempted += replayOps / segmentOps
		if err != nil {
			res.fail(replayOps/segmentOps, "replay: %v", err)
			return nil
		}
		b, err := os.ReadFile(filepath.Join(out, replayDev+"-workload.csv"))
		if err != nil {
			return err
		}
		n, _, err := csvIOs(b)
		if err != nil {
			return err
		}
		if n != replayOps {
			res.fail(replayOps/segmentOps, "replay CSV covers %d IOs, want %d", n, replayOps)
		}
		if sum := digest(b); want == "" {
			want = sum
		} else if sum != want {
			res.fail(replayOps/segmentOps, "replay CSV digest changed between runs (%s, then %s)", want, sum)
		}
		passes.observe(r)
		passes.add(r.wall, n, r.maxRSSMB, dirMB(stateDir, out, tracePath))
		return nil
	}
	tracedReplay := func(rec *layers.Recorder) error {
		src, err := workload.OpenUTRFile(tracePath)
		if err != nil {
			return err
		}
		defer src.Close()
		src.SetLabel("oltp1m") // the CLI labels a trace by its file name
		records, err := rec.Replay(ctx, layers.ReplayRequest{Device: replayDev, Capacity: gib, Seed: o.seed,
			SegmentOps: segmentOps, WindowOps: 256, Source: src})
		if err != nil {
			return err
		}
		if rec != nil {
			checkDigest(res, "replay traced", want, records, replayOps/segmentOps)
		}
		return nil
	}

	if !o.trace {
		start := time.Now()
		for time.Since(start) < time.Duration(o.seconds)*time.Second {
			if err := replay(); err != nil {
				return nil, err
			}
		}
		res.knobs["replays"] = len(passes.simIOsPerS)
		if res.metrics, err = passes.metrics(setupS); err != nil {
			return nil, err
		}
		if err := tracedReplay(layers.NewRecorder()); err != nil {
			return nil, err
		}
	} else {
		if err := replay(); err != nil {
			return nil, err
		}
		m := map[string]float64{}
		start := time.Now()
		if err := tracedReplay(nil); err != nil {
			return nil, err
		}
		plainWall := time.Since(start)
		rec := layers.NewRecorder()
		if err := tracedRun(m, plainWall, func() error { return tracedReplay(rec) }); err != nil {
			return nil, err
		}
		for k, v := range rec.Metrics() {
			m[k] = v
		}
		if m["statestore.load_ms"], err = stateLoads(stateDir, []string{replayDev}, gib, o.seed); err != nil {
			return nil, err
		}
		m["statestore.state_mb"] = dirMB(stateDir)
		zeroUnused(m)
		res.metrics = m
	}
	checkCommitted(o, res, "replay", want, replayOps/segmentOps)
	return res, nil
}
