package ftl

import (
	"testing"
	"time"

	"uflip/internal/flash"
)

// cloneArray builds a small array for clone tests.
func cloneArray(t *testing.T) *Array {
	t.Helper()
	arr, err := NewUniformArray(2, flash.SLC, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// driveOne issues IO i of the deterministic mixed workload the equivalence
// tests replay: a blend of focused writes, scattered writes, reads of both
// kinds and periodic idle grants, exercising allocation, garbage collection,
// merges, map bookkeeping and (through the cache) region eviction.
func driveOne(t *testing.T, tr Translator, i int) Ops {
	t.Helper()
	cap := tr.Capacity()
	// splitmix-style hash keeps offsets decorrelated from the loop index.
	z := uint64(i+1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	off := int64(z%uint64(cap/512)) * 512
	size := int64(512 + (z>>13)%32*512)
	if off+size > cap {
		off = cap - size
	}
	var (
		ops Ops
		err error
	)
	switch i % 7 {
	case 0, 1, 2:
		ops, err = tr.Write(off, size)
	case 3:
		// Sequential-ish stream at the bottom of the space.
		so := (int64(i/7) * 4096) % (cap / 2)
		ops, err = tr.Write(so, 4096)
	case 4, 5:
		ops, err = tr.Read(off, size)
	default:
		ops, err = tr.Read(off%4096, 4096)
		tr.Idle(3 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("drive io %d: %v", i, err)
	}
	return ops
}

// wearOf snapshots the array-visible wear and operation state.
func wearOf(t *testing.T, arr *Array) []int {
	t.Helper()
	out := make([]int, 0, arr.Blocks()+3)
	for b := 0; b < arr.Blocks(); b++ {
		ec, err := arr.EraseCount(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ec)
	}
	s := arr.Stats()
	out = append(out, int(s.Reads), int(s.Programs), int(s.Erases))
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertCloneEquivalent drives k IOs on the original, clones it, then drives
// n more IOs on both and asserts identical per-IO Ops streams, FTL stats and
// flash wear state — the clone-correctness oracle of the snapshot subsystem.
func assertCloneEquivalent(t *testing.T, tr Translator, arrOf func(Translator) *Array, statsOf func(Translator) Stats, k, n int) {
	t.Helper()
	for i := 0; i < k; i++ {
		driveOne(t, tr, i)
	}
	cl := tr.Clone()
	if got, want := statsOf(cl), statsOf(tr); got != want {
		t.Fatalf("clone stats diverge at snapshot: %+v vs %+v", got, want)
	}
	if !equalInts(wearOf(t, arrOf(cl)), wearOf(t, arrOf(tr))) {
		t.Fatal("clone wear state diverges at snapshot")
	}
	for i := k; i < k+n; i++ {
		a := driveOne(t, tr, i)
		b := driveOne(t, cl, i)
		if a != b {
			t.Fatalf("io %d: ops diverge: original %+v clone %+v", i, a, b)
		}
	}
	if got, want := statsOf(cl), statsOf(tr); got != want {
		t.Fatalf("stats diverge after replay: %+v vs %+v", got, want)
	}
	if !equalInts(wearOf(t, arrOf(cl)), wearOf(t, arrOf(tr))) {
		t.Fatal("wear state diverges after replay")
	}
}

func TestPageFTLCloneEquivalence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	f, err := NewPageFTL(arr, PageConfig{
		LogicalBytes:    8 << 20,
		UnitBytes:       32 * 1024,
		WritePoints:     2,
		ReserveBlocks:   8,
		AsyncReclaim:    true,
		ReadSteal:       0.3,
		GCBatch:         2,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
		JournalMaxBytes: 8 * 1024,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	assertCloneEquivalent(t, f,
		func(tr Translator) *Array { return tr.(*PageFTL).arr },
		func(tr Translator) Stats { return tr.(*PageFTL).Stats() },
		600, 600)
}

func TestBlockFTLCloneEquivalence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.MLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	f, err := NewBlockFTL(arr, BlockConfig{
		LogicalBytes:    8 << 20,
		LogBlocks:       3,
		MapDirtyLimit:   2,
		MapUnitsPerPage: 8,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	assertCloneEquivalent(t, f,
		func(tr Translator) *Array { return tr.(*BlockFTL).arr },
		func(tr Translator) Stats { return tr.(*BlockFTL).Stats() },
		400, 400)
}

func TestWriteCacheCloneEquivalence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	inner, err := NewPageFTL(arr, PageConfig{
		LogicalBytes:    8 << 20,
		UnitBytes:       128 * 1024,
		WritePoints:     2,
		ReserveBlocks:   8,
		GCBatch:         1,
		MapDirtyLimit:   8,
		MapUnitsPerPage: 32,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWriteCache(inner, CacheConfig{
		CapacityBytes: 1 << 20,
		LineBytes:     4096,
		RegionBytes:   128 * 1024,
		Streams:       2,
		EvictBatch:    2,
		DestageOnIdle: true,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	arrOf := func(tr Translator) *Array { return tr.(*WriteCache).Inner().(*PageFTL).arr }
	statsOf := func(tr Translator) Stats { return tr.(*WriteCache).Inner().(*PageFTL).Stats() }
	assertCloneEquivalent(t, c, arrOf, statsOf, 500, 500)

	// Cache-level counters must match too.
	cl := c.Clone().(*WriteCache)
	if cl.Stats() != c.Stats() {
		t.Fatalf("cache stats diverge: %+v vs %+v", cl.Stats(), c.Stats())
	}
	if cl.DirtyLines() != c.DirtyLines() || cl.OpenRegions() != c.OpenRegions() {
		t.Fatal("cache dirty-line/region state diverges at snapshot")
	}
	for i := 1000; i < 1400; i++ {
		a := driveOne(t, c, i)
		b := driveOne(t, cl, i)
		if a != b {
			t.Fatalf("io %d: cache ops diverge: %+v vs %+v", i, a, b)
		}
	}
	if cl.Stats() != c.Stats() {
		t.Fatalf("cache stats diverge after replay: %+v vs %+v", cl.Stats(), c.Stats())
	}
}

// TestCloneIndependence checks a clone's writes never leak into the original:
// the original's state stays frozen while the clone keeps working.
func TestCloneIndependence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	f, err := NewPageFTL(arr, PageConfig{
		LogicalBytes:    8 << 20,
		UnitBytes:       32 * 1024,
		WritePoints:     2,
		ReserveBlocks:   4,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		driveOne(t, f, i)
	}
	before := f.Stats()
	wear := wearOf(t, f.arr)
	free := f.FreeBlocks()
	cl := f.Clone()
	for i := 300; i < 900; i++ {
		driveOne(t, cl, i)
	}
	if f.Stats() != before {
		t.Fatal("driving the clone changed the original's stats")
	}
	if !equalInts(wearOf(t, f.arr), wear) {
		t.Fatal("driving the clone changed the original's wear state")
	}
	if f.FreeBlocks() != free {
		t.Fatal("driving the clone changed the original's free pool")
	}
}

// TestMinHeapMatchesReference drives the generic heap against a straight
// re-sorted reference on a pseudo-random push/pop mix.
func TestMinHeapMatchesReference(t *testing.T) {
	var h minHeap[FreeBlock]
	var ref []FreeBlock
	z := uint64(12345)
	next := func() uint64 {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
		return z
	}
	for i := 0; i < 5000; i++ {
		if h.Len() == 0 || next()%3 != 0 {
			fb := FreeBlock{Block: i, EraseCount: int(next() % 8)}
			h.Push(fb)
			ref = append(ref, fb)
			continue
		}
		got := h.Pop()
		// Reference: take the minimum by the same order.
		mi := 0
		for j := 1; j < len(ref); j++ {
			if ref[j].before(ref[mi]) {
				mi = j
			}
		}
		want := ref[mi]
		ref = append(ref[:mi], ref[mi+1:]...)
		if got != want {
			t.Fatalf("op %d: popped %+v, want %+v", i, got, want)
		}
	}
	for h.Len() > 0 {
		got := h.Pop()
		mi := 0
		for j := 1; j < len(ref); j++ {
			if ref[j].before(ref[mi]) {
				mi = j
			}
		}
		want := ref[mi]
		ref = append(ref[:mi], ref[mi+1:]...)
		if got != want {
			t.Fatalf("drain: popped %+v, want %+v", got, want)
		}
	}
	if len(ref) != 0 {
		t.Fatalf("%d reference entries left", len(ref))
	}
}

// TestMinHeapZeroAlloc pins the allocation-free property of the generic
// heap: once the backing slice has grown, push/pop cycles allocate nothing
// (container/heap boxed every element through interface{}).
func TestMinHeapZeroAlloc(t *testing.T) {
	var h minHeap[VictimBlock]
	for i := 0; i < 256; i++ {
		h.Push(VictimBlock{Block: i, Live: i % 7, EraseCount: i % 3})
	}
	for h.Len() > 128 {
		h.Pop()
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Push(VictimBlock{Block: i, Live: i % 5, EraseCount: i % 2})
		h.Pop()
		i++
	})
	if allocs != 0 {
		t.Fatalf("heap push/pop allocates %.1f times per op, want 0", allocs)
	}
}

// TestMapBookRingZeroAlloc pins that steady-state map bookkeeping (the ring
// FIFO of dirty map pages) allocates nothing once warm.
func TestMapBookRingZeroAlloc(t *testing.T) {
	b, s := newMapBook(4, 8)
	var ops Ops
	for i := int64(0); i < 1024; i++ {
		b.touch(&s, i*4, &ops)
	}
	i := int64(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		b.touch(&s, i*4, &ops)
		i++
	})
	if allocs != 0 {
		t.Fatalf("mapBook.touch allocates %.1f times per op, want 0", allocs)
	}
	if b.dirtyCount() > 8 {
		t.Fatalf("dirty count %d exceeds limit", b.dirtyCount())
	}
}
