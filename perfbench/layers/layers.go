// Package layers is the traced side of the perfbench benchmark. It runs the
// same public entry points the uflip CLI and daemon run — the methodology
// plan, the segmented workload replay — in process, on one engine worker,
// over device stacks rebuilt from the profile fields with timing wrappers
// at every layer boundary:
//
//	engine factory (clone)  → Device (SubmitBatch/Submit/Drain)
//	SimDevice → Translator(cache) → WriteCache → Translator(map) → PageFTL/BlockFTL → flash
//
// One worker keeps spans from overlapping, so a layer's self time is its
// span total minus the spans of the layer it calls. The simulated counters
// (cache hits, write amplification, flash operations) are read from each
// device before and after it is used and summed as deltas; a host-speed
// change must leave them exactly equal.
//
// With a nil *Recorder the same pipelines run over the plain
// profile.BuildDevice stack, which is the untraced reference the tracing
// overhead is measured against.
package layers

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// layer names the translation layer a Translator wrapper times.
type layer int

const (
	layerCache  layer = iota // WriteCache, the top of a cached stack
	layerMap                 // PageFTL/BlockFTL under a WriteCache
	layerMapTop              // PageFTL/BlockFTL with no cache above it
)

// Counters are the simulated statistics of the devices a run used, summed
// as per-device deltas over the measured part of the run.
type Counters struct {
	CacheHits, CacheMisses, CacheDestages int64
	HostPagesWritten, PagesProgrammed     int64
	PagesRead, BlocksErased               int64
	Merges, AsyncReclaims                 int64
}

func (c *Counters) add(o Counters, sign int64) {
	c.CacheHits += sign * o.CacheHits
	c.CacheMisses += sign * o.CacheMisses
	c.CacheDestages += sign * o.CacheDestages
	c.HostPagesWritten += sign * o.HostPagesWritten
	c.PagesProgrammed += sign * o.PagesProgrammed
	c.PagesRead += sign * o.PagesRead
	c.BlocksErased += sign * o.BlocksErased
	c.Merges += sign * o.Merges
	c.AsyncReclaims += sign * o.AsyncReclaims
}

// Recorder accumulates the spans and counters of one traced run. It is not
// safe for concurrent use: the pipelines run their engine on one worker.
type Recorder struct {
	deviceNs, cacheNs, mapNs, mapTopNs int64
	ios, batches                       int64

	engineNs, engineDeviceNs int64 // engine wall, and device time inside it
	cloneNs, clones          int64
	cloneAllocBytes          uint64
	setupNs                  int64 // MeasurePhases + MeasurePause
	segmentNs, records       int64 // workload.Source reads

	counters Counters
	live     []tracked // devices in use whose counter deltas are pending
}

type tracked struct {
	dev  device.Device
	base Counters
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// span adds the time since start to the counter of a translation layer.
func (r *Recorder) span(l layer, start time.Time) {
	d := int64(time.Since(start))
	switch l {
	case layerCache:
		r.cacheNs += d
	case layerMap:
		r.mapNs += d
	case layerMapTop:
		r.mapTopNs += d
	}
}

// track starts a counter delta for dev; retire closes every open one.
func (r *Recorder) track(dev device.Device) {
	if r != nil {
		r.live = append(r.live, tracked{dev: dev, base: countersOf(dev)})
	}
}

func (r *Recorder) retire() {
	if r == nil {
		return
	}
	for _, t := range r.live {
		r.counters.add(countersOf(t.dev), 1)
		r.counters.add(t.base, -1)
	}
	r.live = r.live[:0]
}

// countersOf walks a device tree down to the FTLs and sums their statistics.
func countersOf(dev device.Device) Counters {
	var c Counters
	var walkT func(t ftl.Translator)
	walkT = func(t ftl.Translator) {
		switch t := t.(type) {
		case *Translator:
			walkT(t.inner)
		case *ftl.WriteCache:
			s := t.Stats()
			c.CacheHits += s.Hits
			c.CacheMisses += s.Misses
			c.CacheDestages += s.CompleteFlush + s.StreamFlushes + s.CapFlushes + s.IdleDestages
			walkT(t.Inner())
		case *ftl.PageFTL:
			c.addFTL(t.Stats())
		case *ftl.BlockFTL:
			c.addFTL(t.Stats())
		}
	}
	var walk func(d device.Device)
	walk = func(d device.Device) {
		switch d := d.(type) {
		case *Device:
			walk(d.inner)
		case *device.FaultyDevice:
			walk(d.Inner())
		case *device.CompositeDevice:
			for i := 0; i < d.Members(); i++ {
				walk(d.Member(i))
			}
		case *device.SimDevice:
			walkT(d.Top())
		}
	}
	walk(dev)
	return c
}

func (c *Counters) addFTL(s ftl.Stats) {
	c.HostPagesWritten += s.HostPagesWritten
	c.PagesProgrammed += s.PagesProgrammed
	c.PagesRead += s.PagesRead
	c.BlocksErased += s.BlocksErased
	c.Merges += s.Merges
	c.AsyncReclaims += s.AsyncReclaims
}

var (
	_ device.Cloneable = (*Device)(nil)
	_ ftl.Translator   = (*Translator)(nil)
)

// Device times every call into the device stack below the engine.
type Device struct {
	inner device.Cloneable
	rec   *Recorder
}

// Submit forwards one IO.
func (d *Device) Submit(at time.Duration, io device.IO) (time.Duration, error) {
	start := time.Now()
	end, err := d.inner.Submit(at, io)
	d.rec.deviceNs += int64(time.Since(start))
	d.rec.ios++
	d.rec.batches++
	return end, err
}

// SubmitBatch forwards one batch; its error is returned unchanged so
// *device.BatchError still reaches the retry loop.
func (d *Device) SubmitBatch(at time.Duration, ios []device.IO, done []time.Duration) error {
	start := time.Now()
	err := d.inner.SubmitBatch(at, ios, done)
	d.rec.deviceNs += int64(time.Since(start))
	d.rec.ios += int64(len(ios))
	d.rec.batches++
	return err
}

// Capacity forwards to the wrapped device.
func (d *Device) Capacity() int64 { return d.inner.Capacity() }

// SectorSize forwards to the wrapped device.
func (d *Device) SectorSize() int { return d.inner.SectorSize() }

// Name forwards to the wrapped device.
func (d *Device) Name() string { return d.inner.Name() }

// CloneDevice clones the wrapped stack, wrappers included.
func (d *Device) CloneDevice() device.Device {
	return &Device{inner: d.inner.CloneDevice().(device.Cloneable), rec: d.rec}
}

// Drain forwards to the wrapped device.
func (d *Device) Drain() time.Duration {
	if dr, ok := d.inner.(interface{ Drain() time.Duration }); ok {
		return dr.Drain()
	}
	return 0
}

// Translator times every call into one translation layer.
type Translator struct {
	inner ftl.Translator
	rec   *Recorder //uflint:shared — one recorder per traced run
	layer layer     //uflint:shared — fixed by the stack position
}

// Read forwards a read.
func (t *Translator) Read(off, length int64) (ftl.Ops, error) {
	start := time.Now()
	ops, err := t.inner.Read(off, length)
	t.rec.span(t.layer, start)
	return ops, err
}

// Write forwards a write.
func (t *Translator) Write(off, length int64) (ftl.Ops, error) {
	start := time.Now()
	ops, err := t.inner.Write(off, length)
	t.rec.span(t.layer, start)
	return ops, err
}

// Idle forwards idle time, during which caches destage and FTLs reclaim.
func (t *Translator) Idle(d time.Duration) {
	start := time.Now()
	t.inner.Idle(d)
	t.rec.span(t.layer, start)
}

// Capacity forwards to the wrapped layer.
func (t *Translator) Capacity() int64 { return t.inner.Capacity() }

// Clone clones the wrapped layer and everything under it.
func (t *Translator) Clone() ftl.Translator {
	return &Translator{inner: t.inner.Clone(), rec: t.rec, layer: t.layer}
}

// build returns the device a spec names: the plain profile.BuildDevice
// stack for a nil recorder, the wrapped stack otherwise.
func (r *Recorder) build(spec string, capacity int64) (device.Cloneable, error) {
	if r == nil {
		return profile.BuildDevice(spec, capacity)
	}
	inner, err := r.buildStack(spec, capacity)
	if err != nil {
		return nil, err
	}
	return &Device{inner: inner, rec: r}, nil
}

// buildStack mirrors profile.BuildDevice with Translator wrappers between
// the SimDevice, the WriteCache and the FTL. The faithfulness test pins it
// byte-identical to profile.BuildDevice.
func (r *Recorder) buildStack(spec string, capacity int64) (device.Cloneable, error) {
	switch {
	case profile.IsFaultySpec(spec):
		s, err := profile.ParseFaultySpec(spec)
		if err != nil {
			return nil, err
		}
		inner, err := r.buildStack(s.Inner, capacity)
		if err != nil {
			return nil, err
		}
		cfg := s.Cfg
		cfg.Name = s.String()
		cfg.ErrOps = append([]int64(nil), s.Cfg.ErrOps...)
		return device.NewFaulty(cfg, inner), nil
	case profile.IsArraySpec(spec):
		s, err := profile.ParseArraySpec(spec)
		if err != nil {
			return nil, err
		}
		members := make([]device.Device, len(s.MemberKeys))
		for i, key := range s.MemberKeys {
			if members[i], err = r.buildStack(key, capacity); err != nil {
				return nil, err
			}
		}
		return device.NewComposite(device.CompositeConfig{
			Name:       s.String(),
			Layout:     s.Layout,
			ChunkBytes: s.ChunkBytes,
			QueueDepth: s.QueueDepth,
		}, members)
	}
	p, err := profile.ByKey(spec)
	if err != nil {
		return nil, err
	}
	return r.buildProfile(p, capacity)
}

// buildProfile mirrors profile.Profile.BuildWithCapacity.
func (r *Recorder) buildProfile(p profile.Profile, logical int64) (*device.SimDevice, error) {
	if logical <= 0 {
		return nil, fmt.Errorf("profile %s: capacity must be positive", p.Key)
	}
	const blockSize = 128 * 1024
	var headroomBlocks int64
	switch p.Kind {
	case profile.PageMapped:
		headroomBlocks = int64(p.Page.ReserveBlocks + p.Page.WritePoints + 4)
	case profile.BlockMapped:
		headroomBlocks = int64(p.Block.LogBlocks + 4)
	default:
		return nil, fmt.Errorf("profile %s: unknown FTL kind %d", p.Key, p.Kind)
	}
	arr, err := ftl.NewUniformArray(p.Chips, p.Cell, logical+headroomBlocks*blockSize)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.Key, err)
	}
	var base ftl.Translator
	if p.Kind == profile.PageMapped {
		cfg := p.Page
		cfg.LogicalBytes = logical
		base, err = ftl.NewPageFTL(arr, cfg, p.Cost)
	} else {
		cfg := p.Block
		cfg.LogicalBytes = logical
		base, err = ftl.NewBlockFTL(arr, cfg, p.Cost)
	}
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.Key, err)
	}
	top := ftl.Translator(&Translator{inner: base, rec: r, layer: layerMapTop})
	if p.Cache != nil {
		c, err := ftl.NewWriteCache(&Translator{inner: base, rec: r, layer: layerMap}, *p.Cache, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = &Translator{inner: c, rec: r, layer: layerCache}
	}
	sim := p.Sim
	sim.Name = p.Key
	return device.NewSimDevice(sim, top, p.Cost)
}

// factory is the engine device factory over an enforced master: every shard
// gets a clone, timed and tracked when tracing.
func (r *Recorder) factory(master device.Cloneable, at time.Duration) engine.DeviceFactory {
	if r == nil {
		return func(engine.Shard) (device.Device, time.Duration, error) {
			return master.CloneDevice(), at, nil
		}
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return func(engine.Shard) (device.Device, time.Duration, error) {
		r.retire() // one worker: the previous shard is done with its clone
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		start := time.Now()
		c := master.CloneDevice()
		r.cloneNs += int64(time.Since(start))
		metrics.Read(sample)
		r.cloneAllocBytes += sample[0].Value.Uint64() - before
		r.clones++
		r.track(c)
		return c, at, nil
	}
}

// runEngine times one engine execution and the device time inside it.
func (r *Recorder) runEngine(run func() error) error {
	if r == nil {
		return run()
	}
	start, dev0 := time.Now(), r.deviceNs
	err := run()
	r.engineNs += int64(time.Since(start))
	r.engineDeviceNs += r.deviceNs - dev0
	r.retire()
	return err
}

// enforce builds the device and enforces the random state live (a wrapped
// stack cannot be restored from the state store). Enforcement is set-up, not
// part of the measured run: the recorder is put back as it was before.
func (r *Recorder) enforce(spec string, capacity, seed int64) (device.Cloneable, time.Duration, error) {
	var before Recorder
	if r != nil {
		before = *r
	}
	dev, err := r.build(spec, capacity)
	if err != nil {
		return nil, 0, err
	}
	at, err := methodology.EnforceRandomState(dev, seed)
	if err != nil {
		return nil, 0, err
	}
	if r != nil {
		*r = before
	}
	return dev, at, nil
}

// PlanRequest is one methodology run: what `uflip -device D -capacity C
// -seed S -iocount N -micro M` and a daemon plan job execute.
type PlanRequest struct {
	Device   string
	Capacity int64
	Seed     int64
	IOCount  int      // 0 = 1024
	Micros   []string // empty = all nine
}

// RunPlan runs the full methodology the way paperexp.RunBenchmark does —
// phases and pause on the enforced device, then the plan on clones of the
// enforced master — on one worker, and returns the result records behind
// the CLI's -out CSV.
func (r *Recorder) RunPlan(ctx context.Context, req PlanRequest) ([]trace.RunRecord, error) {
	if req.IOCount <= 0 {
		req.IOCount = paperexp.DefaultConfig().IOCount
	}
	dev, at, err := r.enforce(req.Device, req.Capacity, req.Seed)
	if err != nil {
		return nil, err
	}
	master := dev.CloneDevice().(device.Cloneable)

	d := core.StandardDefaults()
	d.IOCount = req.IOCount
	d.Seed = req.Seed
	d.RandomTarget = dev.Capacity() / 2

	start := time.Now()
	r.track(dev)
	phases, err := methodology.MeasurePhases(dev, d, 4*req.IOCount, at+5*time.Second)
	if err != nil {
		return nil, err
	}
	pauseRep, err := methodology.MeasurePause(dev, d, phases.End+5*time.Second)
	if err != nil {
		return nil, err
	}
	if r != nil {
		r.retire()
		r.setupNs += int64(time.Since(start))
	}

	selected, err := paperexp.SelectMicros(req.Micros, d, dev.Capacity())
	if err != nil {
		return nil, err
	}
	var exps []core.Experiment
	for _, mb := range selected {
		exps = append(exps, mb.Experiments...)
	}
	plan := methodology.BuildPlan(exps, dev.Capacity(), pauseRep.RecommendedPause, phases)
	plan.Device = req.Device
	var res *methodology.Results
	err = r.runEngine(func() (err error) {
		res, err = engine.ExecutePlan(ctx, plan, r.factory(master, at+pauseRep.RecommendedPause), engine.Options{
			Workers: 1,
			Seed:    req.Seed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return paperexp.Records(res), nil
}

// ReplayRequest is one segmented replay: what `uflip workload -device D
// -capacity C -seed S -segment N -trace F` and a daemon workload job run.
type ReplayRequest struct {
	Device     string
	Capacity   int64
	Seed       int64
	SegmentOps int
	WindowOps  int
	Source     workload.Source
}

// Replay replays the source on clones of the enforced master, on one
// worker, and returns the records behind the CLI's workload -out CSV.
func (r *Recorder) Replay(ctx context.Context, req ReplayRequest) ([]trace.RunRecord, error) {
	master, at, err := r.enforce(req.Device, req.Capacity, req.Seed)
	if err != nil {
		return nil, err
	}
	src := req.Source
	if r != nil {
		src = &source{inner: src, rec: r}
	}
	var res *workload.Result
	err = r.runEngine(func() (err error) {
		// The CLI and the daemon prepare replay masters with a 1 s pause.
		res, err = workload.ReplaySource(ctx, src, r.factory(master, at+time.Second), workload.Options{
			SegmentOps: req.SegmentOps,
			Workers:    1,
			Seed:       req.Seed,
			WindowOps:  req.WindowOps,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return paperexp.WorkloadRecords(res), nil
}

// source times the reads of a workload.Source.
type source struct {
	inner workload.Source
	rec   *Recorder
}

func (s *source) Name() string { return s.inner.Name() }
func (s *source) Len() int     { return s.inner.Len() }

func (s *source) Segment(start, n int) ([]workload.Op, error) {
	t := time.Now()
	ops, err := s.inner.Segment(start, n)
	s.rec.segmentNs += int64(time.Since(t))
	s.rec.records += int64(len(ops))
	return ops, err
}

// Metrics reports the per-layer figures of everything recorded: host
// milliseconds of self time per layer, operation counts, and the simulated
// counters. Self times are span totals minus the spans of the layer below:
//
//	engine.self    = engine wall − clones − device calls − trace reads
//	device.service = device calls − top translation layer
//	ftl.cache      = WriteCache calls − FTL calls made under them
//	ftl.map        = FTL calls (the flash array included)
func (r *Recorder) Metrics() map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := r.counters
	deviceSelf := r.deviceNs - r.cacheNs - r.mapTopNs
	mapNs := r.mapNs + r.mapTopNs
	flashOps := c.PagesRead + c.PagesProgrammed + c.BlocksErased
	recordsPerS := 0.0
	if r.segmentNs > 0 {
		recordsPerS = float64(r.records) / (float64(r.segmentNs) / 1e9)
	}
	return map[string]float64{
		"engine.clone_ms":         ms(r.cloneNs),
		"engine.clones":           float64(r.clones),
		"engine.clone_alloc_mb":   float64(r.cloneAllocBytes) / (1 << 20),
		"engine.self_ms":          ms(r.engineNs - r.cloneNs - r.engineDeviceNs - r.segmentNs),
		"device.service_ms":       ms(deviceSelf),
		"device.ios":              float64(r.ios),
		"device.batches":          float64(r.batches),
		"device.ns_per_io":        ratio(deviceSelf, r.ios),
		"ftl.cache_ms":            ms(r.cacheNs - r.mapNs),
		"ftl.map_ms":              ms(mapNs),
		"ftl.map_ns_per_flash_op": ratio(mapNs, flashOps),
		"ftl.cache_hit_ratio":     ratio(c.CacheHits, c.CacheHits+c.CacheMisses),
		"ftl.cache_destages":      float64(c.CacheDestages),
		"ftl.write_amp":           ratio(c.PagesProgrammed, c.HostPagesWritten),
		"ftl.merges":              float64(c.Merges),
		"ftl.async_reclaims":      float64(c.AsyncReclaims),
		"flash.reads":             float64(c.PagesRead),
		"flash.programs":          float64(c.PagesProgrammed),
		"flash.erases":            float64(c.BlocksErased),
		"methodology.setup_ms":    ms(r.setupNs),
		"trace.segment_ms":        ms(r.segmentNs),
		"trace.records_per_s":     recordsPerS,
	}
}
