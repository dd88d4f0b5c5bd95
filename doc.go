// Package uflip is a from-scratch Go reproduction of "uFLIP: Understanding
// Flash IO Patterns" (Bouganim, Jónsson, Bonnet, CIDR 2009): the uFLIP
// benchmark (IO patterns, nine micro-benchmarks), its benchmarking
// methodology (device state enforcement, the start-up/running two-phase
// model, pause determination, benchmark plans), and a full flash device
// simulator (NAND chips, flash translation layers, write buffers,
// interconnect) calibrated to the paper's eleven devices.
//
// The module is named uflip and has no external dependencies; build and
// test with "go build ./... && go test ./...", or try
// "go run ./cmd/uflip -device memoright" for a full benchmark run.
// Benchmark plans execute through the parallel engine (internal/engine):
// deterministic shards on private simulated devices across a worker pool,
// selected with the uflip command's -parallel flag (-parallel 1 is the
// sequential fallback; any worker count produces identical results).
//
// Performance: the IO pipeline is batch-first. device.Device exposes
// SubmitBatch(at, ios, done) next to the per-IO Submit: callers hand over
// a slice of IOs plus a reused done scratch slice (absolute submission
// times, or ChainNext/ChainAfter to chain each IO on its predecessor's
// completion) and the simulator services the whole batch in one virtual
// call with zero allocations — SimDevice and CompositeDevice implement it
// natively, and the pattern executor, state enforcement, workload
// replayer and array sweeps all submit fixed-size batches from reused
// buffers. The per-IO path survives as the reference implementation:
// device.SerialSubmitBatch and the device.NewPerIO wrapper force batches
// through Submit one IO at a time, and differential oracles (a device
// fuzz target plus full-plan, array and workload CSV byte-identity tests
// in internal/paperexp) pin the two paths identical. On top of that, the
// whole simulation stack snapshots — flash chips, arrays, every
// translation layer and the simulated device itself expose deep Clone()
// — so the engine enforces the paper's well-defined device state
// (Section 4.1) once per (profile, capacity, seed) master and hands every
// shard a clone instead of replaying the enforcement IOs; tests pin the
// clone path byte-identical to rebuilding per shard. The hot path is
// allocation-free in steady state (generic zero-boxing heaps replace
// container/heap, map bookkeeping runs on a fixed ring, both
// SimDevice.Submit and the 128-IO SubmitBatch are pinned at 0 allocs/op),
// and stats.Percentiles derives any number of quantiles from one sort.
// Profile any run with the uflip command's -cpuprofile/-memprofile flags;
// track the benchmark trajectory with "make bench-json" and gate
// regressions with "make bench-check" (cmd/benchcheck against the
// committed BENCH_baseline.json, pinning Table3, EngineSpeedup,
// SubmitBatch and ReplayParallel).
//
// Beyond the paper's micro-benchmarks, the workload subsystem
// (internal/workload, surfaced as "uflip workload") drives the simulated
// devices with application-shaped workloads: synthetic generators — an
// OLTP-style random page read/write mix (-kind oltp), log-structured
// append streams (-kind append), Zipfian hot/cold access (-kind zipf) and
// bursty arrival phases (-kind bursty) — plus a block-trace replayer for a
// simple CSV format (offset,size,mode,gap_us; header optional, '#'
// comments, gaps stored losslessly). Streams are pure functions of their
// configuration and seed; replays split into fixed segments that execute
// on private devices across the worker pool and merge in stream order, so
// results are byte-identical for any -parallel value. Long replays report
// windowed summaries (internal/stats) so drift over time stays visible.
//
// Composite device arrays (internal/device.CompositeDevice) extend the
// paper's single-device study to multi-device deployments: stripe (RAID-0
// with configurable chunk size, chunk-crossing IOs split and coalesce per
// member), mirror (RAID-1, writes fan out to all members, reads go to the
// member with the fewest outstanding IOs) and concat layouts over any mix
// of simulated members, each member behind a bounded host-side queue whose
// depth couples the members (a full queue stalls the array's dispatcher).
// Arrays are fully deterministic and Clone()-able, so the engine shards
// them exactly like single devices. Every -device flag accepts an array
// spec such as "stripe(2,mtron,mtron)" or "stripe(4,mtron,chunk=64k,qd=8)"
// (capacity applies per member), and "uflip array" sweeps the four
// baselines over layout x member count x queue depth into a Table-3-style
// grid (byte-identical for any -parallel value).
//
// Enforced device states persist across processes through the state store
// (internal/statestore, surfaced as the -statedir flag on every uflip
// command): the first run of a (device spec, capacity, seed) combination
// enforces the Section 4.1 state and saves the whole stack's state to
// disk, and every later run loads it back instead of replaying the fill,
// with results pinned byte-identical either way. There is one state
// mechanism per layer: each layer declares its mutable state once as a
// plain-data struct (chip state, FTL maps, heap backing arrays, cache
// regions, pipeline clocks, composite queues, fault schedule position),
// Clone deep-copies it, and the store gob-encodes the same structs as one
// tagged tree (device.State) that Restore validates and adopts.
// Files are content-addressed by a SHA-256 of the canonical key and carry
// a format version and payload CRC, so corrupted or truncated caches fail
// loudly instead of mis-loading. On top of the store, "uflip serve"
// (internal/server) runs the simulator as a long-lived experiment daemon:
// plan, workload and array-sweep jobs submitted as JSON over HTTP execute
// through the same pipelines as the CLI (byte-identical results, pinned by
// tests and a CI diff), with a bounded job queue, configurable per-job
// parallelism, per-job cancellation, and one state store shared by all
// jobs — each device state is enforced at most once, ever.
//
// Fault injection (internal/device.FaultyDevice, spec syntax
// "faulty(mtron,readerr=1e-4,spike=200us@0.01,seed=7)", accepted by every
// -device flag and nestable into array members) wraps any device with a
// deterministic fault schedule — a pure function of seed and op index:
// per-op read/write media-error probabilities, explicit failing op
// indexes, sticky bad offsets, latency spikes, submission stalls, and a
// whole-device death point. Faults surface as typed errors (ErrMediaRead,
// ErrMediaWrite, ErrDeviceGone) inside a BatchError that keeps the batch
// contract intact, and the stack above rides them out: SubmitBatchRetry
// resubmits failed tails with deterministic simulated-time backoff (fault
// and retry counts land in every summary CSV and report), mirror arrays
// route around members that die mid-run, the daemon's -job-timeout
// watchdog fails stuck jobs with a typed SSE event, the client reconnects
// dropped event streams with jittered backoff, and corrupted state-cache
// files are quarantined and re-enforced instead of mis-loading. Zero-rate
// wrapping is pinned byte-identical to the raw device, and armed
// schedules are pinned byte-identical at any worker count — fault
// injection is an experiment variable, not noise.
//
// A differential and fuzz test layer guards the simulator: 1-member arrays
// are pinned byte-identical to their raw member over the full
// micro-benchmark suite and the workload generators; the FTL data plane
// (ftl.DataPlane over flash.WithDataStorage) carries real payload bytes
// through relocations, merges, garbage collection and cache destages so a
// read-after-write oracle can verify data integrity under OLTP/Zipf
// workloads; and native go fuzz targets (make fuzz-smoke) cover the
// block-trace CSV, result CSV and array-spec parsers with committed seed
// corpora.
//
// The implementation lives under internal/; see README.md for the layout,
// cmd/ for the executables, examples/ for runnable walk-throughs, and
// bench_test.go in this directory for the benchmark harness that regenerates
// every table and figure of the paper's evaluation.
package uflip
