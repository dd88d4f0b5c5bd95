package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"uflip/internal/device"
)

func memDev() *device.MemDevice {
	return device.NewMemDevice("mem", 64<<20, time.Millisecond, 2*time.Millisecond)
}

func TestExecutePatternTiming(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 10
	p := SR.Pattern(d)
	run, err := ExecutePattern(memDev(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.RTs) != 10 {
		t.Fatalf("RTs = %d", len(run.RTs))
	}
	for i, rt := range run.RTs {
		if rt != time.Millisecond {
			t.Fatalf("IO %d rt = %v, want 1ms", i, rt)
		}
	}
	if run.Total != 10*time.Millisecond {
		t.Fatalf("Total = %v", run.Total)
	}
	if run.Summary.N != 10 {
		t.Fatalf("Summary.N = %d", run.Summary.N)
	}
	if run.Mean() != time.Millisecond {
		t.Fatalf("Mean = %v", run.Mean())
	}
}

func TestExecutePatternIgnoresWarmup(t *testing.T) {
	// A device whose first IOs are cheap: the summary must exclude them.
	dev := memDev()
	d := StandardDefaults()
	d.IOCount = 8
	d.IOIgnore = 4
	p := SW.Pattern(d)
	run, err := ExecutePattern(dev, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.IOIgnore != 4 {
		t.Fatalf("IOIgnore = %d", run.IOIgnore)
	}
	if run.Summary.N != 4 {
		t.Fatalf("summary covers %d IOs, want 4", run.Summary.N)
	}
	if len(run.MeasuredRTs()) != 4 {
		t.Fatalf("MeasuredRTs = %d", len(run.MeasuredRTs()))
	}
}

func TestExecutePauseScheduling(t *testing.T) {
	// pause(P): t(IOi) = t(IOi-1) + rt(IOi-1) + P. With a 1 ms read and a
	// 3 ms pause, 4 IOs span 4*1 + 3*3 = 13 ms but each response is 1 ms.
	d := StandardDefaults()
	d.IOCount = 4
	p := SR.Pattern(d)
	p.Pause = 3 * time.Millisecond
	run, err := ExecutePattern(memDev(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Total != 13*time.Millisecond {
		t.Fatalf("Total = %v, want 13ms", run.Total)
	}
	for _, rt := range run.RTs {
		if rt != time.Millisecond {
			t.Fatalf("rt = %v, pause leaked into response time", rt)
		}
	}
}

func TestExecuteBurstScheduling(t *testing.T) {
	// burst(P, B): a pause only between groups of B IOs.
	d := StandardDefaults()
	d.IOCount = 6
	p := SR.Pattern(d)
	p.Pause = 10 * time.Millisecond
	p.Burst = 3
	run, err := ExecutePattern(memDev(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 IOs of 1 ms + one inter-burst pause (before IO 3).
	if run.Total != 16*time.Millisecond {
		t.Fatalf("Total = %v, want 16ms", run.Total)
	}
	// Submissions 0,1,2 back-to-back; gap before 3.
	if gap := run.SubmitTimes[3] - run.SubmitTimes[2]; gap != 11*time.Millisecond {
		t.Fatalf("burst gap = %v, want 11ms", gap)
	}
	if gap := run.SubmitTimes[2] - run.SubmitTimes[1]; gap != time.Millisecond {
		t.Fatalf("intra-burst gap = %v, want 1ms", gap)
	}
}

func TestExecuteStartAt(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 2
	p := SR.Pattern(d)
	run, err := ExecutePattern(memDev(), p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.SubmitTimes[0] != time.Second {
		t.Fatalf("first submit at %v", run.SubmitTimes[0])
	}
	if run.Total != 2*time.Millisecond {
		t.Fatalf("Total = %v", run.Total)
	}
}

func TestExecuteInvalidArguments(t *testing.T) {
	d := StandardDefaults()
	p := SR.Pattern(d)
	if _, err := Execute(memDev(), p.Source(), 0, 0, Timing{}, 0); err == nil {
		t.Fatal("IOCount 0 accepted")
	}
	if _, err := Execute(memDev(), p.Source(), 10, 10, Timing{}, 0); err == nil {
		t.Fatal("IOIgnore >= IOCount accepted")
	}
	bad := p
	bad.IOSize = 777
	if _, err := ExecutePattern(memDev(), bad, 0); err == nil {
		t.Fatal("invalid pattern executed")
	}
}

func TestExecuteParallelSplitsTarget(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 32
	p := SW.Pattern(d)
	p.TargetSize = 4 << 20
	run, err := ExecuteParallel(memDev(), p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.RTs) != 32 {
		t.Fatalf("parallel run produced %d IOs", len(run.RTs))
	}
	// The serialized device interleaves the processes: the total equals
	// the serial total (no speedup from parallelism — the paper's
	// Section 5.2 observation is structural in this device class).
	if run.Total != 32*2*time.Millisecond {
		t.Fatalf("Total = %v, want 64ms", run.Total)
	}
}

func TestExecuteParallelValidation(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 8
	p := SW.Pattern(d)
	if _, err := ExecuteParallel(memDev(), p, 0, 0); err == nil {
		t.Fatal("degree 0 accepted")
	}
	small := p
	small.TargetSize = small.IOSize
	if _, err := ExecuteParallel(memDev(), small, 8, 0); err == nil {
		t.Fatal("target too small for degree accepted")
	}
	if _, err := ExecuteParallel(memDev(), p, 16, 0); err == nil {
		t.Fatal("IOCount smaller than degree accepted")
	}
}

func TestExecuteParallelDeterministic(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 64
	p := RW.Pattern(d)
	p.TargetSize = 16 << 20
	run1, err := ExecuteParallel(memDev(), p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := ExecuteParallel(memDev(), p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range run1.RTs {
		if run1.RTs[i] != run2.RTs[i] {
			t.Fatal("parallel execution not deterministic")
		}
	}
}

func TestExecuteMix(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 40
	a := SR.Pattern(d)
	b := SW.Pattern(d)
	b.TargetOffset = 32 << 20
	run, err := ExecuteMix(memDev(), a, b, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.RTs) == 0 {
		t.Fatal("empty mix run")
	}
	// With ratio 4 the mean sits between the read (1 ms) and write (2 ms)
	// costs, nearer the reads: 4 reads + 1 write per 5 IOs = 1.2 ms.
	mean := run.Summary.Mean * 1e3
	if mean < 1.05 || mean > 1.35 {
		t.Fatalf("mix mean = %.3f ms, want ~1.2", mean)
	}
	if _, err := ExecuteMix(memDev(), a, b, 0, 0); err == nil {
		t.Fatal("ratio 0 accepted")
	}
}

func TestMicrobenchmarkGenerators(t *testing.T) {
	d := StandardDefaults()
	const capacity = 8 << 30
	mbs := AllMicrobenchmarks(d, capacity)
	if len(mbs) != 9 {
		t.Fatalf("got %d micro-benchmarks, want the paper's 9", len(mbs))
	}
	names := map[string]bool{}
	for _, mb := range mbs {
		names[mb.Name] = true
		if len(mb.Experiments) == 0 {
			t.Errorf("%s has no experiments", mb.Name)
		}
		for _, e := range mb.Experiments {
			if e.MixWith == nil {
				if err := e.Pattern.Validate(); err != nil {
					t.Errorf("%s: invalid pattern: %v", e.ID(), err)
				}
			}
			if e.Micro != mb.Name {
				t.Errorf("experiment %s claims micro %q", e.ID(), e.Micro)
			}
		}
	}
	for _, want := range []string{"Granularity", "Alignment", "Locality", "Partitioning", "Order", "Parallelism", "Mix", "Pause", "Bursts"} {
		if !names[want] {
			t.Errorf("missing micro-benchmark %s", want)
		}
	}
}

func TestGranularityRange(t *testing.T) {
	d := StandardDefaults()
	mb := Granularity(d, 8<<30)
	// Table 1: [2^0 .. 2^9] x 512 B plus non-powers of two, per baseline.
	perBase := map[Baseline]int{}
	var sawNonPower bool
	for _, e := range mb.Experiments {
		perBase[e.Base]++
		if e.Value&(e.Value-1) != 0 {
			sawNonPower = true
		}
		if e.Value < 512 || e.Value > 512<<9 {
			t.Errorf("IOSize %d out of Table 1 range", e.Value)
		}
	}
	for _, b := range Baselines {
		if perBase[b] < 10 {
			t.Errorf("%s has only %d granularity points", b, perBase[b])
		}
	}
	if !sawNonPower {
		t.Error("no non-power-of-two sizes (Table 1 requires some)")
	}
}

func TestMixPairsMatchPaper(t *testing.T) {
	if len(MixPairs) != 6 {
		t.Fatalf("%d mix pairs, want 6", len(MixPairs))
	}
	d := StandardDefaults()
	mb := Mix(d, 8<<30)
	// 6 combinations x ratios 2^0..2^6 = 42 experiments.
	if len(mb.Experiments) != 42 {
		t.Fatalf("%d mix experiments, want 42", len(mb.Experiments))
	}
	for _, e := range mb.Experiments {
		if e.MixWith == nil {
			t.Fatal("mix experiment without partner")
		}
		// Partners must not overlap in target space.
		alo, ahi := e.Pattern.Span()
		blo, bhi := e.MixWith.Span()
		if alo < bhi && blo < ahi {
			t.Fatalf("mix %s partners overlap: [%d,%d) vs [%d,%d)", e.ID(), alo, ahi, blo, bhi)
		}
	}
}

func TestOrderIncludesReverseAndInPlace(t *testing.T) {
	d := StandardDefaults()
	mb := Order(d, 8<<30)
	saw := map[int64]bool{}
	for _, e := range mb.Experiments {
		saw[e.Value] = true
	}
	for _, want := range []int64{-1, 0, 1, 256} {
		if !saw[want] {
			t.Errorf("Order missing Incr=%d", want)
		}
	}
}

func TestExperimentIDStable(t *testing.T) {
	d := StandardDefaults()
	mb := Locality(d, 8<<30)
	e := mb.Experiments[0]
	if e.ID() == "" || e.ID() != e.ID() {
		t.Fatal("unstable ID")
	}
}

func TestExperimentRunDispatch(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 16
	dev := memDev()
	// Plain, parallel and mix experiments all run through Experiment.Run.
	plain := Experiment{Micro: "t", Base: SR, Pattern: SR.Pattern(d)}
	if _, err := plain.Run(dev, 0); err != nil {
		t.Fatal(err)
	}
	par := Experiment{Micro: "t", Base: SW, Pattern: SW.Pattern(d), Degree: 2}
	if _, err := par.Run(dev, 0); err != nil {
		t.Fatal(err)
	}
	b := SW.Pattern(d)
	b.TargetOffset = 32 << 20
	mix := Experiment{Micro: "t", Base: SR, Pattern: SR.Pattern(d), MixWith: &b, Ratio: 2}
	if _, err := mix.Run(dev, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteParallelLargeIgnore(t *testing.T) {
	// A methodology-assigned IOIgnore larger than the per-process IO count
	// must not fail sub-pattern validation: the start-up phase is ignored
	// over the merged series, not per process.
	d := StandardDefaults()
	d.IOCount = 64
	d.IOIgnore = 40
	p := SW.Pattern(d)
	run, err := ExecuteParallel(memDev(), p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.IOIgnore != 40 {
		t.Fatalf("IOIgnore = %d, want 40", run.IOIgnore)
	}
	if run.Summary.N != int64(len(run.RTs)-40) {
		t.Fatalf("summary covers %d IOs, want %d", run.Summary.N, len(run.RTs)-40)
	}

	// When rounding leaves fewer merged IOs than the ignore, summarize the
	// whole series instead of an empty one.
	d.IOCount = 9
	d.IOIgnore = 8
	p = SW.Pattern(d)
	run, err = ExecuteParallel(memDev(), p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.IOIgnore != 0 {
		t.Fatalf("IOIgnore = %d, want fallback 0", run.IOIgnore)
	}
	if run.Summary.N != int64(len(run.RTs)) {
		t.Fatalf("summary covers %d IOs, want all %d", run.Summary.N, len(run.RTs))
	}
}

// parallelRetryDigest pins a Parallelism run on a device that fails one IO
// in ten: its response times, submission times, fault and retry counts and
// total, as the dedicated per-IO retry loop ExecuteParallel used to have
// produced them. The run now goes through the shared batch retry loop one IO
// at a time; the digest proves the retry semantics (doubling simulated-time
// backoff from the original submission) did not move.
const parallelRetryDigest = "d9fe8ddb173d6209554e3dd28b299744f15c90a9cc4d46595a217798e3dfa0d3"

func TestExecuteParallelRetriesPinned(t *testing.T) {
	d := StandardDefaults()
	d.IOCount = 256
	p := RW.Pattern(d)
	p.TargetSize = 16 << 20
	dev := device.NewFaulty(device.FaultConfig{ReadErrRate: 0.1, WriteErrRate: 0.1, Seed: 5}, memDev())
	run, err := ExecuteParallel(dev, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Faults.Faults == 0 || run.Faults.Retries == 0 {
		t.Fatalf("faults %+v: the schedule never fired", run.Faults)
	}
	sum := sha256.Sum256([]byte(fmt.Sprint(run.RTs, run.SubmitTimes, run.Faults, run.Total)))
	if got := hex.EncodeToString(sum[:]); got != parallelRetryDigest {
		t.Fatalf("parallel retry run digest %s, pinned %s (faults %+v)", got, parallelRetryDigest, run.Faults)
	}
	// Exhausted retries surface the device error under the per-IO prefix:
	// the first IO fails at op 0 and on all four retries (ops 1-4).
	always := device.NewFaulty(device.FaultConfig{WriteErrRate: 1, Seed: 1}, memDev())
	_, err = ExecuteParallel(always, p, 4, 0)
	if want := "core: parallel IO 0: device mem: op 4: device: media write error"; err == nil || err.Error() != want {
		t.Fatalf("exhausted retries: err %v, want %q", err, want)
	}
}
