package workload_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomTraceOps builds a deterministic pseudo-random op stream within both
// formats' bounds, including the gap edge cases (0 and the shared ceiling).
func randomTraceOps(t *testing.T, n int, seed int64) []workload.Op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := make([]workload.Op, n)
	for i := range ops {
		mode := device.Read
		if rng.Intn(2) == 1 {
			mode = device.Write
		}
		ops[i] = workload.Op{
			Gap: time.Duration(rng.Int63n(int64(time.Minute))),
			IO: device.IO{
				Mode: mode,
				Off:  rng.Int63n(1 << 40),
				Size: 1 + rng.Int63n(4<<20),
			},
		}
	}
	ops[0].Gap = 0
	if n > 1 {
		ops[1].Gap = trace.MaxUTRGap
	}
	return ops
}

// TestTraceFormatsLosslessRoundTrip is the cross-format property test:
// CSV -> utr -> CSV reproduces the canonical CSV byte for byte, and
// utr -> CSV -> utr reproduces the utr bytes byte for byte.
func TestTraceFormatsLosslessRoundTrip(t *testing.T) {
	ops := randomTraceOps(t, 3000, 17)
	var csv1 bytes.Buffer
	if err := workload.WriteTrace(&csv1, ops); err != nil {
		t.Fatal(err)
	}

	// CSV -> ops -> utr -> ops -> CSV.
	fromCSV, err := workload.ReadTrace(bytes.NewReader(csv1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var utr1 bytes.Buffer
	if err := workload.WriteUTR(&utr1, fromCSV); err != nil {
		t.Fatal(err)
	}
	fromUTR, err := workload.ReadUTR(bytes.NewReader(utr1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromUTR, fromCSV) {
		t.Fatal("ops drifted across the utr round trip")
	}
	var csv2 bytes.Buffer
	if err := workload.WriteTrace(&csv2, fromUTR); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatal("CSV -> utr -> CSV is not byte-identical")
	}

	// utr -> CSV -> utr.
	var utr2 bytes.Buffer
	if err := workload.WriteUTR(&utr2, fromCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(utr1.Bytes(), utr2.Bytes()) {
		t.Fatal("utr -> CSV -> utr is not byte-identical")
	}
}

// TestConvertTraceFileStreams pins the `uflip trace convert` engine: the
// streaming file converter must emit exactly what the slice-based writers
// emit, in both directions, sniffing the input format from content.
func TestConvertTraceFileStreams(t *testing.T) {
	ops := randomTraceOps(t, 500, 23)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	utrPath := filepath.Join(dir, "t.utr")
	backPath := filepath.Join(dir, "back.csv")
	if err := workload.SaveTrace(csvPath, ops); err != nil {
		t.Fatal(err)
	}
	if n, err := workload.ConvertTraceFile(csvPath, utrPath, workload.FormatForPath(utrPath)); err != nil || n != len(ops) {
		t.Fatalf("csv -> utr: n=%d err=%v", n, err)
	}
	var wantUTR bytes.Buffer
	if err := workload.WriteUTR(&wantUTR, ops); err != nil {
		t.Fatal(err)
	}
	gotUTR := readFile(t, utrPath)
	if !bytes.Equal(gotUTR, wantUTR.Bytes()) {
		t.Fatal("streamed utr conversion differs from WriteUTR")
	}
	if n, err := workload.ConvertTraceFile(utrPath, backPath, workload.FormatForPath(backPath)); err != nil || n != len(ops) {
		t.Fatalf("utr -> csv: n=%d err=%v", n, err)
	}
	if !bytes.Equal(readFile(t, backPath), readFile(t, csvPath)) {
		t.Fatal("csv -> utr -> csv via ConvertTraceFile is not byte-identical")
	}
}

// TestGapBoundsAgree pins the two formats to one gap ceiling: the CSV bound
// in microseconds converts exactly to the utr bound in nanoseconds, and a
// gap at the bound survives the CSV write -> parse path exactly.
func TestGapBoundsAgree(t *testing.T) {
	if got := time.Duration(workload.MaxGapUS * 1e3); got != trace.MaxUTRGap {
		t.Fatalf("MaxGapUS converts to %d ns, utr bound is %d ns", got, trace.MaxUTRGap)
	}
	var buf bytes.Buffer
	atBound := []workload.Op{{Gap: trace.MaxUTRGap, IO: device.IO{Mode: device.Read, Size: 512}}}
	if err := workload.WriteTrace(&buf, atBound); err != nil {
		t.Fatal(err)
	}
	ops, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("gap at the shared bound rejected by the CSV parser: %v", err)
	}
	if ops[0].Gap != trace.MaxUTRGap {
		t.Fatalf("bound gap drifted to %d ns across the CSV round trip", ops[0].Gap)
	}
	over := []workload.Op{{Gap: trace.MaxUTRGap + time.Microsecond, IO: device.IO{Mode: device.Read, Size: 512}}}
	if err := workload.WriteUTR(io.Discard, over); err == nil {
		t.Fatal("utr writer accepted a gap past the shared bound")
	}
}

// TestUTRSourceSegments pins OpenUTRFile against the in-memory stream: same
// length, same ops in every segment window, same report name as the
// slice-backed Trace generator.
func TestUTRSourceSegments(t *testing.T) {
	ops := randomTraceOps(t, 1000, 5)
	path := filepath.Join(t.TempDir(), "seg.utr")
	if err := workload.SaveUTR(path, ops); err != nil {
		t.Fatal(err)
	}
	src, err := workload.OpenUTRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetLabel("seg")
	if src.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", src.Len(), len(ops))
	}
	if want := (workload.Trace{Label: "seg"}).Name(); src.Name() != want {
		t.Fatalf("Name = %q, want %q", src.Name(), want)
	}
	for _, win := range [][2]int{{0, 1}, {0, 333}, {333, 333}, {666, 334}, {0, 1000}} {
		got, err := src.Segment(win[0], win[1])
		if err != nil {
			t.Fatalf("Segment(%d,%d): %v", win[0], win[1], err)
		}
		if !reflect.DeepEqual(got, ops[win[0]:win[0]+win[1]]) {
			t.Fatalf("Segment(%d,%d) differs from the stream", win[0], win[1])
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {999, 2}, {1000, 1}} {
		if _, err := src.Segment(bad[0], bad[1]); err == nil {
			t.Fatalf("Segment(%d,%d): accepted, want an error", bad[0], bad[1])
		}
	}
}

// TestOpenTraceSourceFormats: OpenTraceSource sniffs either on-disk format
// from the content and yields the same named op stream, and a corrupt .utr
// trace is refused at open.
func TestOpenTraceSourceFormats(t *testing.T) {
	ops := randomTraceOps(t, 500, 9)
	var csvBuf, utrBuf bytes.Buffer
	if err := workload.WriteTrace(&csvBuf, ops); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteUTR(&utrBuf, ops); err != nil {
		t.Fatal(err)
	}
	want := (workload.Trace{Label: "fmt"}).Name()
	for name, body := range map[string][]byte{"csv": csvBuf.Bytes(), "utr": utrBuf.Bytes()} {
		src, err := workload.OpenTraceSource(bytes.NewReader(body), int64(len(body)), "fmt")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if src.Name() != want || src.Len() != len(ops) {
			t.Fatalf("%s: source %q with %d ops, want %q with %d", name, src.Name(), src.Len(), want, len(ops))
		}
		got, err := src.Segment(0, len(ops))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, ops) {
			t.Fatalf("%s: ops differ from the stream written", name)
		}
	}
	bad := append([]byte(nil), utrBuf.Bytes()...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := workload.OpenTraceSource(bytes.NewReader(bad), int64(len(bad)), "fmt"); err == nil {
		t.Fatal("corrupt utr trace accepted")
	}
}

// TestReplayUTRMatchesCSV is the tentpole equivalence pin: replaying a
// stream from its .utr file (streaming segments) produces a Result deeply
// equal to replaying the materialized ops, at 1 and 4 workers.
func TestReplayUTRMatchesCSV(t *testing.T) {
	gen := workload.OLTP{
		PageSize: 8 * 1024, TargetSize: testCapacity / 2,
		ReadFraction: 0.6, Count: 600, Seed: 11,
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.utr")
	if err := workload.SaveUTR(path, ops); err != nil {
		t.Fatal(err)
	}
	factory := testFactory(t)
	name := (workload.Trace{Label: "replay"}).Name()
	for _, workers := range []int{1, 4} {
		opts := workload.Options{SegmentOps: 150, Workers: workers, Seed: 3}
		direct, err := workload.ReplayParallel(context.Background(), name, ops, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.OpenUTRFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src.SetLabel("replay")
		streamed, err := workload.ReplaySource(context.Background(), src, factory, opts)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, streamed) {
			t.Fatalf("workers=%d: utr-streamed replay differs from the in-memory replay", workers)
		}
	}
}
