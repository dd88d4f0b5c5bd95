package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/workload"
	"uflip/perfbench/benchstats"
	"uflip/perfbench/layers"
)

const (
	serveClients  = 2    // closed-loop clients, each waiting for its reply
	serveJobs     = 1000 // jobs per run: p99 then has 10 samples beyond it
	serveCapacity = 16 << 20
	serveIOCount  = 32
	serveSetups   = 15 // daemon starts per run; setup_s is their median
	uploadEvery   = 8  // one op in eight uploads a fresh trace
	replayEvery   = 8  // one job in eight replays an uploaded trace
	traceOps      = 32768
	serveKeep     = 256 // the daemon's default -keep
	replaySpec    = "faulty(stripe(2,mtron,mtron),readerr=1e-4,seed=7)"
)

// daemon is one running `uflip serve`.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon starts uflip serve on an ephemeral loopback port and waits
// until /v1/healthz answers.
func startDaemon(ctx context.Context, o options, stateDir, jobDir string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, o.bin, "serve", "-addr", "127.0.0.1:0", "-jobs", "2", "-parallel", "1",
		"-statedir", stateDir, "-jobdir", jobDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	sc := bufio.NewScanner(stdout)
	if sc.Scan() {
		// "uflip serve: listening on http://127.0.0.1:PORT (...)"
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			d.base, _, _ = strings.Cut(rest, " ")
		}
	}
	go func() {
		defer close(d.done)
		for sc.Scan() {
		}
	}()
	if d.base == "" {
		d.stop()
		return nil, errors.New("uflip serve did not report its address")
	}
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the daemon to exit and returns its peak RSS.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited daemon is stopped already
	<-d.done
	_ = d.cmd.Wait() // SIGTERM ends it with "signal: terminated"
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// serveOp is one job submission.
type serveOp struct {
	req api.JobRequest
	key string // identifies the distinct request
}

// jobLog is what a client measured about one finished job.
type jobLog struct {
	key                                   string
	rtt, admit, queue, run, notify, fetch time.Duration
	csv                                   []byte
}

// clientTrace is the seeded op stream of upload k by client c.
func clientTrace(seed int64, c, k int) ([]byte, error) {
	gen, err := workload.Spec{Kind: "oltp", Count: traceOps, Seed: seed*1_000_003 + int64(c)*10_007 + int64(k) + 1,
		PageSize: 8 << 10, ReadFraction: 0.7, TargetSize: serveCapacity}.Build()
	if err != nil {
		return nil, err
	}
	ops, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := workload.WriteUTR(&b, ops); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// jobSeeds are the two device-state seeds of the request pool. They are
// fixed, so every run asks for the same simulated work; the run seed
// shapes the traffic instead (request order and uploaded traces).
var jobSeeds = [2]int64{1, 2}

// planPool is every distinct plan request: each representative device, the
// two cheapest micro-benchmarks (so simulation stays a small share of a
// job and the serving layers carry the time) and two state seeds.
func planPool() []serveOp {
	var pool []serveOp
	for _, d := range representatives() {
		for _, m := range []string{"Order", "Partitioning"} {
			for _, s := range jobSeeds {
				pool = append(pool, serveOp{key: fmt.Sprintf("plan/%s/%s/%d", d, m, s), req: api.JobRequest{
					Kind: "plan", Device: d, Capacity: serveCapacity, Seed: s, IOCount: serveIOCount,
					Micros: []string{m}, Parallel: 1,
				}})
			}
		}
	}
	return pool
}

// runServeMix drives `uflip serve` with a closed loop of two clients.
func runServeMix(ctx context.Context, o options) (*result, error) {
	stateDir, jobDir := filepath.Join(o.work, "state"), filepath.Join(o.work, "jobs")
	pool := planPool()
	res := &result{knobs: map[string]any{
		"serve_jobs": 2, "parallel": 1, "clients": serveClients, "jobs": serveJobs, "capacity": serveCapacity,
		"iocount": serveIOCount, "plan_pool": len(pool), "upload_every": uploadEvery, "replay_every": replayEvery,
		"trace_ops": traceOps, "replay_device": replaySpec, "seed": o.seed, "setup_reps": serveSetups,
	}}

	// Set-up: daemon start until /v1/healthz answers, serveSetups times.
	var setups []float64
	var d *daemon
	for rep := 0; rep < serveSetups; rep++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, o, stateDir, jobDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	logs := make([][]jobLog, serveClients)
	uploads := make([][]api.TraceInfo, serveClients)
	uploadRTT := make([][]float64, serveClients)
	errs := make([]error, serveClients) // the last failure of each client
	failures := make([]int, serveClients)
	var wg sync.WaitGroup
	loopStart := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client.Client{BaseURL: d.base, HTTPClient: &http.Client{}}
			// Each client walks the pool in its own seeded order, so every
			// request recurs equally often whatever the seed.
			rng := rand.New(rand.NewPCG(uint64(o.seed), uint64(c)+1))
			order := rng.Perm(len(pool))
			planJobs, jobs := 0, 0
			for op := 0; jobs < serveJobs/serveClients; op++ {
				if ctx.Err() != nil {
					errs[c] = ctx.Err()
					return
				}
				if op%uploadEvery == 0 {
					body, err := clientTrace(o.seed, c, len(uploads[c]))
					if err != nil {
						errs[c] = err
						return
					}
					start := time.Now()
					info, err := cl.UploadTrace(ctx, body)
					if err != nil {
						failures[c]++
						errs[c] = fmt.Errorf("upload: %w", err)
						continue
					}
					uploadRTT[c] = append(uploadRTT[c], ms(time.Since(start)))
					uploads[c] = append(uploads[c], info)
					continue
				}
				var job serveOp
				if jobs%replayEvery == replayEvery-1 && len(uploads[c]) > 0 {
					k := rng.IntN(len(uploads[c]))
					job = serveOp{key: fmt.Sprintf("replay/%d/%d", c, k), req: api.JobRequest{
						Kind: "workload", Device: replaySpec, Capacity: serveCapacity, Seed: jobSeeds[0], Parallel: 1,
						Workload: &api.WorkloadRequest{TraceHash: uploads[c][k].Hash, SegmentOps: segmentOps, WindowOps: 256},
					}}
				} else {
					job = pool[order[planJobs%len(pool)]]
					planJobs++
				}
				jobs++
				l, err := runJob(ctx, cl, job, o.trace)
				if err != nil {
					failures[c]++
					errs[c] = err
					continue
				}
				logs[c] = append(logs[c], l)
			}
		}()
	}
	wg.Wait()
	loopWall := time.Since(loopStart)
	for c := range errs {
		res.attempted += len(logs[c]) + len(uploads[c]) + failures[c]
		if errs[c] != nil {
			res.fail(failures[c], "client %d: %v", c, errs[c])
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	storeMB := dirMB(stateDir, jobDir)
	jobsMB := dirMB(filepath.Join(jobDir, "jobs"))
	peakRSS := d.stop()
	stopped = true

	// Expected CSVs: every distinct request through the traced stack on
	// one worker (or the plain stack, for the overhead reference).
	var all []jobLog
	var uploadsAll []float64
	for c := range logs {
		all = append(all, logs[c]...)
		uploadsAll = append(uploadsAll, uploadRTT[c]...)
	}
	retained := min(len(all), serveKeep)
	expected := func(rec *layers.Recorder) (map[string]string, error) {
		out := map[string]string{}
		for _, l := range all {
			if _, ok := out[l.key]; ok {
				continue
			}
			var sum string
			var err error
			if strings.HasPrefix(l.key, "plan/") {
				sum, err = expectedPlan(ctx, rec, pool, l.key)
			} else {
				sum, err = expectedReplay(ctx, rec, o.seed, uploads, l.key)
			}
			if err != nil {
				return nil, err
			}
			out[l.key] = sum
		}
		return out, nil
	}
	m := map[string]float64{}
	var want map[string]string
	var err error
	if !o.trace {
		if want, err = expected(layers.NewRecorder()); err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		if _, err := expected(nil); err != nil {
			return nil, err
		}
		plainWall := time.Since(start)
		rec := layers.NewRecorder()
		if err := tracedRun(m, plainWall, func() (err error) { want, err = expected(rec); return err }); err != nil {
			return nil, err
		}
		for k, v := range rec.Metrics() {
			m[k] = v
		}
	}
	var simIOs int64
	rtts := make([]float64, 0, len(all))
	distinct := map[string]bool{}
	for _, l := range all {
		distinct[l.key] = true
		rtts = append(rtts, ms(l.rtt))
		if got := digest(l.csv); got != want[l.key] {
			res.fail(1, "%s: job CSV digest %s differs from the traced run's %s", l.key, got, want[l.key])
			continue
		}
		n, _, err := csvIOs(l.csv)
		if err != nil {
			return nil, err
		}
		simIOs += n
	}
	res.knobs["distinct_requests"] = len(distinct)
	res.knobs["repeat_share"] = 1 - float64(len(distinct))/float64(len(all))
	checkCommitted(o, res, "jobs", digestSet(want), len(all))

	if !o.trace {
		p99, err := percentile(rtts, 99, "job_rtt_p99_ms")
		if err != nil {
			return nil, err
		}
		res.metrics = map[string]float64{
			"sim_ios_per_s":  float64(simIOs) / loopWall.Seconds(),
			"peak_rss_mb":    peakRSS,
			"setup_s":        benchstats.Median(setups),
			"job_rtt_p50_ms": benchstats.Median(rtts),
			"job_rtt_p99_ms": p99,
			"jobs_per_s":     float64(len(all)) / loopWall.Seconds(),
			"upload_p50_ms":  benchstats.Median(uploadsAll),
			"store_mb":       storeMB,
		}
		return res, nil
	}
	col := func(f func(jobLog) time.Duration) []float64 {
		xs := make([]float64, len(all))
		for i, l := range all {
			xs[i] = ms(f(l))
		}
		return xs
	}
	queue := col(func(l jobLog) time.Duration { return l.queue })
	if m["server.queue_p99_ms"], err = percentile(queue, 99, "server.queue_p99_ms"); err != nil {
		return nil, err
	}
	m["server.admit_ms"] = benchstats.Median(col(func(l jobLog) time.Duration { return l.admit }))
	m["server.queue_ms"] = benchstats.Median(queue)
	m["server.run_ms"] = benchstats.Median(col(func(l jobLog) time.Duration { return l.run }))
	m["server.notify_ms"] = benchstats.Median(col(func(l jobLog) time.Duration { return l.notify }))
	m["server.fetch_ms"] = benchstats.Median(col(func(l jobLog) time.Duration { return l.fetch }))
	m["jobstore.mb_per_job"] = jobsMB / float64(max(retained, 1))
	if m["statestore.load_ms"], err = serveStateLoads(stateDir, pool, distinct); err != nil {
		return nil, err
	}
	m["statestore.state_mb"] = dirMB(stateDir)
	zeroUnused(m)
	res.metrics = m
	return res, nil
}

// runJob submits one job, follows its event stream to the terminal event
// and fetches its CSV. With timestamps it also fetches the final status for
// the daemon-side queue and run times.
func runJob(ctx context.Context, cl *client.Client, job serveOp, timestamps bool) (jobLog, error) {
	l := jobLog{key: job.key}
	start := time.Now()
	st, err := cl.Submit(ctx, job.req)
	if err != nil {
		return l, fmt.Errorf("%s: submit: %w", job.key, err)
	}
	l.admit = time.Since(start)
	var final api.Event
	var doneAt time.Time
	if err := cl.Events(ctx, st.ID, 0, func(ev api.Event) {
		if ev.Terminal() {
			final, doneAt = ev, time.Now()
		}
	}); err != nil {
		return l, fmt.Errorf("%s: events: %w", job.key, err)
	}
	if final.Type != api.EventDone {
		return l, fmt.Errorf("%s: job %s ended %s: %s", job.key, st.ID, final.Type, final.Error)
	}
	if l.csv, err = cl.CSV(ctx, st.ID); err != nil {
		return l, fmt.Errorf("%s: csv: %w", job.key, err)
	}
	l.rtt = time.Since(start)
	l.fetch = time.Since(doneAt)
	if timestamps {
		fin, err := cl.Status(ctx, st.ID)
		if err != nil {
			return l, fmt.Errorf("%s: status: %w", job.key, err)
		}
		l.queue = fin.Started.Sub(fin.Submitted)
		l.run = fin.Finished.Sub(fin.Started)
		l.notify = doneAt.Sub(fin.Finished)
	}
	return l, nil
}

// expectedPlan digests a plan job's CSV computed in process.
func expectedPlan(ctx context.Context, rec *layers.Recorder, pool []serveOp, key string) (string, error) {
	for _, p := range pool {
		if p.key != key {
			continue
		}
		records, err := rec.RunPlan(ctx, layers.PlanRequest{Device: p.req.Device, Capacity: p.req.Capacity,
			Seed: p.req.Seed, IOCount: p.req.IOCount, Micros: p.req.Micros})
		if err != nil {
			return "", err
		}
		return recordsDigest(records)
	}
	return "", fmt.Errorf("no pool request %s", key)
}

// expectedReplay digests a replay job's CSV computed in process from the
// regenerated trace, labelled the way the daemon labels uploads.
func expectedReplay(ctx context.Context, rec *layers.Recorder, seed int64, uploads [][]api.TraceInfo, key string) (string, error) {
	var c, k int
	if _, err := fmt.Sscanf(key, "replay/%d/%d", &c, &k); err != nil {
		return "", err
	}
	body, err := clientTrace(seed, c, k)
	if err != nil {
		return "", err
	}
	label := uploads[c][k].OpsHash
	if len(label) > 12 {
		label = label[:12]
	}
	src, err := workload.NewUTRSource(bytes.NewReader(body), int64(len(body)), label)
	if err != nil {
		return "", err
	}
	records, err := rec.Replay(ctx, layers.ReplayRequest{Device: replaySpec, Capacity: serveCapacity,
		Seed: jobSeeds[0], SegmentOps: segmentOps, WindowOps: 256, Source: src})
	if err != nil {
		return "", err
	}
	return recordsDigest(records)
}

// serveStateLoads times statestore.Load of every state the jobs used.
func serveStateLoads(dir string, pool []serveOp, used map[string]bool) (float64, error) {
	var total float64
	seen := map[string]bool{}
	replays := false
	for k := range used {
		replays = replays || strings.HasPrefix(k, "replay/")
	}
	for _, p := range pool {
		k := fmt.Sprintf("%s/%d", p.req.Device, p.req.Seed)
		if seen[k] || !used[p.key] {
			continue
		}
		seen[k] = true
		t, err := stateLoads(dir, []string{p.req.Device}, serveCapacity, p.req.Seed)
		if err != nil {
			return 0, err
		}
		total += t
	}
	if !replays {
		return total, nil
	}
	t, err := stateLoads(dir, []string{replaySpec}, serveCapacity, jobSeeds[0])
	return total + t, err
}
