package layers

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uflip/internal/paperexp"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func csvOf(t *testing.T, records []trace.RunRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteSummaryCSV(&b, records); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkSelfTimes asserts the layer self times are non-negative and sum to
// no more than the traced wall time: spans that overlapped or were counted
// twice would break one or the other.
func checkSelfTimes(t *testing.T, rec *Recorder, wall time.Duration) {
	t.Helper()
	m := rec.Metrics()
	var sum float64
	for _, name := range []string{"engine.clone_ms", "engine.self_ms", "device.service_ms", "ftl.cache_ms", "ftl.map_ms", "trace.segment_ms"} {
		if m[name] < 0 {
			t.Errorf("%s = %v, negative", name, m[name])
		}
		sum += m[name]
	}
	// The phase and pause measurement runs outside the engine; its device
	// time is already inside device.service_ms and the FTL figures.
	if wallMS := float64(wall) / 1e6; sum > wallMS {
		t.Errorf("layer self times sum to %.3f ms, more than the traced wall time %.3f ms", sum, wallMS)
	}
	if m["device.ios"] == 0 || m["flash.programs"]+m["flash.reads"] == 0 || m["engine.clones"] == 0 {
		t.Errorf("traced run recorded no work: %v", m)
	}
}

// TestTracedPlanMatchesBuildDevice: the wrapped stack on one worker gives the
// CSV the repo's own pipeline (profile.BuildDevice, two workers) gives.
func TestTracedPlanMatchesBuildDevice(t *testing.T) {
	ctx := context.Background()
	const capacity = 64 << 20
	out, err := paperexp.RunBenchmark(ctx, "mtron", paperexp.Config{Capacity: capacity, Seed: 42, IOCount: 1024},
		paperexp.BenchmarkRequest{Micros: []string{"Order"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := csvOf(t, paperexp.Records(out.Results))

	req := PlanRequest{Device: "mtron", Capacity: capacity, Seed: 42, Micros: []string{"Order"}}
	rec := NewRecorder()
	start := time.Now()
	traced, err := rec.RunPlan(ctx, req)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := csvOf(t, traced); !bytes.Equal(got, want) {
		t.Fatalf("traced plan CSV differs from profile.BuildDevice:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	plain, err := (*Recorder)(nil).RunPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := csvOf(t, plain); !bytes.Equal(got, want) {
		t.Fatal("untraced in-process plan CSV differs from profile.BuildDevice")
	}
	checkSelfTimes(t, rec, wall)
	m := rec.Metrics()
	if m["methodology.setup_ms"] <= 0 || m["ftl.cache_ms"] <= 0 {
		t.Errorf("mtron plan recorded no methodology or cache time: %v", m)
	}
}

// TestTracedReplayMatchesBuildDevice covers the replay path, the FTL with no
// cache above it (kingston-dti) and the faulty and composite wrappers.
func TestTracedReplayMatchesBuildDevice(t *testing.T) {
	ctx := context.Background()
	gen, err := workload.Spec{Kind: "oltp", Count: 4096, Seed: 9, PageSize: 8 << 10, ReadFraction: 0.7, TargetSize: 8 << 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec     string
		capacity int64
	}{
		{"mtron", 64 << 20},
		{"kingston-dti", 16 << 20},
		{"faulty(stripe(2,mtron,mtron),readerr=1e-4,seed=7)", 16 << 20},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			src := workload.OpsSource(gen.Name(), ops)
			res, err := workload.ReplaySource(ctx, src, paperexp.ShardFactory(tc.spec, paperexp.Config{Capacity: tc.capacity, Seed: 9, Pause: time.Second}),
				workload.Options{SegmentOps: 512, Workers: 2, Seed: 9, WindowOps: 256})
			if err != nil {
				t.Fatal(err)
			}
			want := csvOf(t, paperexp.WorkloadRecords(res))

			rec := NewRecorder()
			start := time.Now()
			traced, err := rec.Replay(ctx, ReplayRequest{Device: tc.spec, Capacity: tc.capacity, Seed: 9, SegmentOps: 512, WindowOps: 256, Source: src})
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if got := csvOf(t, traced); !bytes.Equal(got, want) {
				t.Fatal("traced replay CSV differs from profile.BuildDevice")
			}
			checkSelfTimes(t, rec, wall)
			if m := rec.Metrics(); m["engine.clones"] != 8 || m["trace.segment_ms"] <= 0 || m["device.ios"] < 4096 {
				t.Errorf("replay recorded clones=%v segment_ms=%v ios=%v; want 8 clones, trace reads, >= 4096 IOs",
					m["engine.clones"], m["trace.segment_ms"], m["device.ios"])
			}
		})
	}
}

// TestRecorderAccumulatesAcrossRuns: one recorder over several runs sums
// them; enforcing the next run's state must not drop the earlier runs.
func TestRecorderAccumulatesAcrossRuns(t *testing.T) {
	ctx := context.Background()
	gen, err := workload.Spec{Kind: "oltp", Count: 1024, Seed: 3, PageSize: 8 << 10, ReadFraction: 0.7, TargetSize: 8 << 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	for i := 0; i < 2; i++ {
		if _, err := rec.Replay(ctx, ReplayRequest{Device: "mtron", Capacity: 16 << 20, Seed: 3, SegmentOps: 512,
			Source: workload.OpsSource(gen.Name(), ops)}); err != nil {
			t.Fatal(err)
		}
	}
	if m := rec.Metrics(); m["engine.clones"] != 4 || m["device.ios"] != 2048 {
		t.Errorf("two replays recorded clones=%v ios=%v, want 4 and 2048", m["engine.clones"], m["device.ios"])
	}
}
