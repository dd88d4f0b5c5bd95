package ftl

import (
	"fmt"
	"time"
)

// PageConfig configures a PageFTL.
type PageConfig struct {
	// LogicalBytes is the capacity exposed to the host. It must leave at
	// least ReserveBlocks+WritePoints+2 blocks of raw flash headroom.
	LogicalBytes int64
	// UnitBytes is the mapping granularity (a multiple of the flash page
	// size that divides the flash block size). This is the granularity
	// the Granularity micro-benchmark probes.
	UnitBytes int
	// WritePoints is the number of concurrent append streams the FTL
	// tracks. Sequential streams beyond this count interleave into shared
	// blocks and later cost garbage-collection copies (the Partitioning
	// cliff of Table 3).
	WritePoints int
	// ReserveBlocks is the target size of the pre-erased free pool. A
	// full pool is what produces the cheap start-up phase of Figure 3;
	// once drained, garbage collection runs inline and write cost starts
	// oscillating.
	ReserveBlocks int
	// AsyncReclaim lets idle time between IOs refill the free pool (the
	// Pause/Bursts effect of Table 3, and the lingering interference of
	// Figure 5).
	AsyncReclaim bool
	// ReadSteal is the fraction of a read's cost additionally stalled to
	// fund background reclamation while the pool is below target (the
	// lingering effect after a random-write batch, Figure 5). 0 disables.
	ReadSteal float64
	// MapDirtyLimit bounds the dirty direct-map pages buffered in RAM
	// before one is flushed to flash; MapUnitsPerPage is how many mapping
	// entries one on-flash map page covers. Together they make widely
	// scattered writes pay extra bookkeeping (the Order/large-Incr rows).
	MapDirtyLimit   int
	MapUnitsPerPage int
	// GCBatch is how many victims one inline garbage-collection episode
	// reclaims (default 1). Batching is what makes the running-phase cost
	// oscillate between cheap writes and expensive reclamation episodes
	// (Figure 3) instead of averaging out.
	GCBatch int
	// JournalMaxBytes routes host writes of at most this size (and
	// smaller than the mapping unit) through a fine-granularity journal:
	// they pay program cost only for the pages actually written instead
	// of a full-unit read-modify-write. This reproduces the Figure 6
	// observation on the Memoright SSD that four 4 KB random writes take
	// about as long as one 16 KB random write. (The physical unit
	// relocation still happens; only the timing of the sub-unit path is
	// short-circuited, with the journal's own merge cost folded into the
	// mapping unit's eventual GC.) Zero disables the journal.
	JournalMaxBytes int64
}

func (c PageConfig) validate(a *Array) error {
	pageSize := a.Geometry().PageSize
	blockSize := a.Geometry().BlockSize()
	switch {
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.UnitBytes < pageSize || c.UnitBytes%pageSize != 0:
		return fmt.Errorf("ftl: UnitBytes %d must be a positive multiple of the page size %d", c.UnitBytes, pageSize)
	case blockSize%c.UnitBytes != 0:
		return fmt.Errorf("ftl: UnitBytes %d must divide the block size %d", c.UnitBytes, blockSize)
	case c.WritePoints < 1:
		return fmt.Errorf("ftl: WritePoints must be >= 1")
	case c.ReserveBlocks < 2:
		return fmt.Errorf("ftl: ReserveBlocks must be >= 2")
	case c.MapDirtyLimit < 1 || c.MapUnitsPerPage < 1:
		return fmt.Errorf("ftl: map bookkeeping parameters must be >= 1")
	}
	logicalBlocks := (c.LogicalBytes + int64(blockSize) - 1) / int64(blockSize)
	need := logicalBlocks + int64(c.ReserveBlocks+c.WritePoints+2)
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, page FTL needs >= %d (logical %d + reserve %d + write points %d + 2)",
			a.Blocks(), need, logicalBlocks, c.ReserveBlocks, c.WritePoints)
	}
	return nil
}

// WritePoint is the state of one append stream.
type WritePoint struct {
	Block    int   // physical block being filled, -1 if none
	NextSlot int   // next unit slot within block
	LastUnit int64 // last logical unit appended (stream detection)
	LastUse  int64 // LRU tick
}

// PageFTLState is the complete mutable state of a PageFTL, as plain data
// (the flash array underneath carries its own): Clone deep-copies it and the
// persistent state store encodes it.
type PageFTLState struct {
	FMap []int64 // logical unit -> physical slot (block*unitsPerBlock+slot), -1 unmapped
	RMap []int64 // physical slot -> logical unit, -1 free/obsolete
	Live []int32 // physical block -> live unit count

	Free    minHeap[FreeBlock]
	Victims minHeap[VictimBlock]
	VGen    []int32 // per-block generation, guards ghost victim entries
	IsOpen  []bool  // block currently attached to a write point

	WPs  []WritePoint
	GCWP WritePoint
	Tick int64

	Book MapBookState

	IdleCredit time.Duration
	Stats      Stats

	LastReadSlot int64 // physical slot of previous page read, for pipelining
}

func (s *PageFTLState) clone() PageFTLState {
	g := *s
	g.FMap = append([]int64(nil), s.FMap...)
	g.RMap = append([]int64(nil), s.RMap...)
	g.Live = append([]int32(nil), s.Live...)
	g.Free = append(minHeap[FreeBlock](nil), s.Free...)
	g.Victims = append(minHeap[VictimBlock](nil), s.Victims...)
	g.VGen = append([]int32(nil), s.VGen...)
	g.IsOpen = append([]bool(nil), s.IsOpen...)
	g.WPs = append([]WritePoint(nil), s.WPs...)
	g.Book = s.Book.clone()
	return g
}

// PageFTL is a page-granularity (unit-granularity) mapped flash translation
// layer with greedy garbage collection: the design of the high-end SSDs in
// the paper's device set.
type PageFTL struct {
	arr   *Array
	cfg   PageConfig //uflint:shared — immutable config from the profile
	model CostModel  //uflint:shared — immutable cost tables

	unitBytes     int64 //uflint:shared — derived from the geometry
	pagesPerUnit  int   //uflint:shared — derived from the geometry
	unitsPerBlock int   //uflint:shared — derived from the geometry
	logicalUnits  int64 //uflint:shared — derived from the geometry

	st   PageFTLState
	book mapBook

	// Data plane (flash built with data storage only): pending host bytes
	// of the WriteData call in flight, and the staging buffer holding one
	// unit's merged payload while it is relocated.
	dataMode   bool   //uflint:shared — wired at construction from the flash build
	pending    []byte //uflint:scratch — alive only within one WriteData call
	pendingOff int64  //uflint:scratch — alive only within one WriteData call
	unitData   []byte //uflint:scratch — relocation staging; contents dead between calls
}

// NewPageFTL builds a page-mapped FTL over the array. The flash must be in
// its factory (all-erased) state. A zero (or negative) GCBatch takes the
// documented default of 1 victim per collection episode.
func NewPageFTL(arr *Array, cfg PageConfig, model CostModel) (*PageFTL, error) {
	if cfg.GCBatch <= 0 {
		cfg.GCBatch = 1
	}
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	blockSize := arr.Geometry().BlockSize()
	f := &PageFTL{
		arr:           arr,
		cfg:           cfg,
		model:         model,
		unitBytes:     int64(cfg.UnitBytes),
		pagesPerUnit:  cfg.UnitBytes / arr.Geometry().PageSize,
		unitsPerBlock: blockSize / cfg.UnitBytes,
	}
	f.logicalUnits = (cfg.LogicalBytes + f.unitBytes - 1) / f.unitBytes
	idle := WritePoint{Block: -1, LastUnit: -2}
	f.st = PageFTLState{
		FMap:         make([]int64, f.logicalUnits),
		RMap:         make([]int64, int64(arr.Blocks())*int64(f.unitsPerBlock)),
		Live:         make([]int32, arr.Blocks()),
		VGen:         make([]int32, arr.Blocks()),
		IsOpen:       make([]bool, arr.Blocks()),
		WPs:          make([]WritePoint, cfg.WritePoints),
		GCWP:         idle,
		LastReadSlot: -2,
	}
	for i := range f.st.FMap {
		f.st.FMap[i] = -1
	}
	for i := range f.st.RMap {
		f.st.RMap[i] = -1
	}
	for b := 0; b < arr.Blocks(); b++ {
		f.st.Free.Push(FreeBlock{Block: b, EraseCount: 0})
	}
	for i := range f.st.WPs {
		f.st.WPs[i] = idle
	}
	f.book, f.st.Book = newMapBook(int64(cfg.MapUnitsPerPage), cfg.MapDirtyLimit)
	if arr.StoresData() {
		f.dataMode = true
		f.unitData = make([]byte, cfg.UnitBytes)
	}
	return f, nil
}

// Capacity returns the logical byte capacity.
func (f *PageFTL) Capacity() int64 { return f.cfg.LogicalBytes }

// Clone returns a deep copy of the FTL and the flash array underneath.
func (f *PageFTL) Clone() Translator {
	g := *f
	g.arr = f.arr.Clone()
	g.st = f.st.clone()
	g.book = f.book.clone()
	if f.dataMode {
		g.unitData = make([]byte, len(f.unitData))
	}
	g.pending = nil
	return &g
}

// Stats returns a snapshot of the FTL counters.
func (f *PageFTL) Stats() Stats { return f.st.Stats }

// FreeBlocks returns the current size of the pre-erased pool (for tests and
// the state/ablation experiments).
func (f *PageFTL) FreeBlocks() int { return f.st.Free.Len() }

// MappedUnits returns how many logical units currently map to flash.
func (f *PageFTL) MappedUnits() int64 {
	var n int64
	for _, s := range f.st.FMap {
		if s >= 0 {
			n++
		}
	}
	return n
}

func (f *PageFTL) slotOf(block, slot int) int64 {
	return int64(block)*int64(f.unitsPerBlock) + int64(slot)
}

// allocBlock pops a pre-erased block. When the pool is empty (and forGC is
// false) it garbage-collects inline — a batch of GCBatch victims — which is
// what makes random-write cost oscillate once the start-up reserve is
// drained.
func (f *PageFTL) allocBlock(ops *Ops, forGC bool) (int, error) {
	if !forGC {
		for f.st.Free.Len() < 2 {
			// GCBatch is normalized to >= 1 by NewPageFTL.
			for i := 0; i < f.cfg.GCBatch && f.st.Victims.Len() > 0; i++ {
				if err := f.collectOne(ops); err != nil {
					return 0, err
				}
			}
			if f.st.Victims.Len() == 0 && f.st.Free.Len() < 2 {
				return 0, ErrNoSpace
			}
		}
	}
	if f.st.Free.Len() == 0 {
		return 0, ErrNoSpace
	}
	fb := f.st.Free.Pop()
	f.st.IsOpen[fb.Block] = true
	return fb.Block, nil
}

func (f *PageFTL) pushFree(block int) {
	ec, _ := f.arr.EraseCount(block)
	f.st.Free.Push(FreeBlock{Block: block, EraseCount: ec})
}

// collectOne garbage-collects the closed block with the fewest live units,
// copying its live units through the GC write point and erasing it. The
// operations are charged to ops (inline/synchronous collection); pass a
// throwaway ops for background collection.
func (f *PageFTL) collectOne(ops *Ops) error {
	victim, ok := f.popVictim()
	if !ok {
		return ErrNoSpace
	}
	f.st.Stats.Merges++
	liveUnits := int(f.st.Live[victim])
	if liveUnits == 0 {
		f.st.Stats.SwitchMerges++
	}
	for slot := 0; slot < f.unitsPerBlock && liveUnits > 0; slot++ {
		ps := f.slotOf(victim, slot)
		unit := f.st.RMap[ps]
		if unit < 0 {
			continue
		}
		liveUnits--
		// Read the live unit's pages (merge path).
		for p := 0; p < f.pagesPerUnit; p++ {
			if err := f.arr.ReadPage(victim, slot*f.pagesPerUnit+p); err != nil {
				return fmt.Errorf("ftl: gc read: %w", err)
			}
		}
		ops.MergeReads += f.pagesPerUnit
		f.st.Stats.PagesRead += int64(f.pagesPerUnit)
		// Relocate it through the GC write point.
		if err := f.appendUnit(&f.st.GCWP, unit, ops, true, 0); err != nil {
			return err
		}
	}
	if err := f.arr.EraseBlock(victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	ops.Erases++
	f.st.Stats.BlocksErased++
	f.st.Live[victim] = 0
	f.st.VGen[victim]++ // any heap entries for this life become ghosts
	f.pushFree(victim)
	return nil
}

// pushVictim registers a closed block that has at least one obsolete slot as
// a garbage-collection candidate. Blocks still attached to a write point and
// fully live blocks are never candidates; a fully live block enters the heap
// the moment one of its units is overwritten.
func (f *PageFTL) pushVictim(block int) {
	if f.st.IsOpen[block] || int(f.st.Live[block]) >= f.unitsPerBlock {
		return
	}
	ec, _ := f.arr.EraseCount(block)
	f.st.Victims.Push(VictimBlock{Block: block, Live: int(f.st.Live[block]), EraseCount: ec, Gen: f.st.VGen[block]})
}

// popVictim returns the closed block with the fewest live units, using a
// lazy heap: ghost entries (from a block's previous life) are discarded and
// stale entries (whose live count changed since push) are re-pushed with the
// current count. Valid entries always satisfy live < unitsPerBlock because
// entries are only pushed for blocks with obsolete slots and closed blocks
// never gain live units.
func (f *PageFTL) popVictim() (int, bool) {
	for f.st.Victims.Len() > 0 {
		v := f.st.Victims.Pop()
		if v.Gen != f.st.VGen[v.Block] || f.st.IsOpen[v.Block] {
			continue // ghost from a previous life of this block
		}
		cur := f.st.Live[v.Block]
		if int32(v.Live) != cur {
			f.st.Victims.Push(VictimBlock{Block: v.Block, Live: int(cur), EraseCount: v.EraseCount, Gen: v.Gen})
			continue
		}
		if int(cur) >= f.unitsPerBlock {
			continue // duplicate entry gone stale; drop it
		}
		return v.Block, true
	}
	return 0, false
}

func (f *PageFTL) closeWP(wp *WritePoint) {
	if wp.Block < 0 {
		return
	}
	f.st.IsOpen[wp.Block] = false
	f.pushVictim(wp.Block)
	wp.Block = -1
	wp.NextSlot = 0
}

// appendUnit writes one unit's worth of pages at wp, updating the maps.
// hostPages of the unit carry host-supplied data (streamed, well pipelined);
// the rest are read-modify-write copies priced on the merge path.
func (f *PageFTL) appendUnit(wp *WritePoint, unit int64, ops *Ops, forGC bool, hostPages int) error {
	if wp.Block < 0 || wp.NextSlot >= f.unitsPerBlock {
		f.closeWP(wp)
		b, err := f.allocBlock(ops, forGC)
		if err != nil {
			return err
		}
		wp.Block = b
		wp.NextSlot = 0
	}
	if f.dataMode {
		// Stage the unit's payload — current content overlaid with any
		// pending host bytes — after block allocation (an inline GC above
		// may just have relocated this unit) and before the maps move.
		f.stageUnit(unit, !forGC)
	}
	base := wp.NextSlot * f.pagesPerUnit
	pageSize := f.arr.Geometry().PageSize
	for p := 0; p < f.pagesPerUnit; p++ {
		if f.dataMode {
			if err := f.arr.ProgramPageData(wp.Block, base+p, f.unitData[p*pageSize:(p+1)*pageSize]); err != nil {
				return fmt.Errorf("ftl: program: %w", err)
			}
			continue
		}
		if err := f.arr.ProgramPage(wp.Block, base+p); err != nil {
			return fmt.Errorf("ftl: program: %w", err)
		}
	}
	if forGC {
		ops.MergePrograms += f.pagesPerUnit
	} else {
		if hostPages > f.pagesPerUnit {
			hostPages = f.pagesPerUnit
		}
		ops.PagePrograms += hostPages
		ops.MergePrograms += f.pagesPerUnit - hostPages
	}
	f.st.Stats.PagesProgrammed += int64(f.pagesPerUnit)

	// Obsolete the old location, if any; the old block becomes (or gets
	// closer to being) a garbage-collection candidate.
	if old := f.st.FMap[unit]; old >= 0 {
		f.st.RMap[old] = -1
		oldBlock := int(old / int64(f.unitsPerBlock))
		f.st.Live[oldBlock]--
		f.pushVictim(oldBlock)
	}
	ps := f.slotOf(wp.Block, wp.NextSlot)
	f.st.FMap[unit] = ps
	f.st.RMap[ps] = unit
	f.st.Live[wp.Block]++
	wp.NextSlot++
	wp.LastUnit = unit
	f.st.Tick++
	wp.LastUse = f.st.Tick

	// Direct-map bookkeeping (Section 2.2: updates of bookkeeping
	// information are themselves flash writes).
	if !forGC {
		before := ops.MapFlushes
		f.book.touch(&f.st.Book, unit, ops)
		f.st.Stats.MapFlushes += int64(ops.MapFlushes - before)
	}
	return nil
}

// stageUnit assembles the payload the unit's relocation must carry into
// f.unitData: the unit's current stored bytes (zeros where none), overlaid —
// on the host path only — with the pending WriteData bytes that fall inside
// the unit. GC relocations (overlayHost false) move content verbatim.
func (f *PageFTL) stageUnit(unit int64, overlayHost bool) {
	clear(f.unitData)
	pageSize := f.arr.Geometry().PageSize
	if old := f.st.FMap[unit]; old >= 0 {
		block := int(old / int64(f.unitsPerBlock))
		slot := int(old % int64(f.unitsPerBlock))
		for p := 0; p < f.pagesPerUnit; p++ {
			if data, err := f.arr.PageData(block, slot*f.pagesPerUnit+p); err == nil {
				copy(f.unitData[p*pageSize:(p+1)*pageSize], data)
			}
		}
	}
	if overlayHost && f.pending != nil {
		overlay(f.unitData, unit*f.unitBytes, f.pending, f.pendingOff)
	}
}

// StoresData reports whether the flash underneath retains payloads.
func (f *PageFTL) StoresData() bool { return f.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across every later
// relocation).
func (f *PageFTL) WriteData(off int64, data []byte) (Ops, error) {
	if !f.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	f.pending, f.pendingOff = data, off
	ops, err := f.Write(off, int64(len(data)))
	f.pending = nil
	return ops, err
}

// ReadData implements the data plane: exactly Read(off, len(buf)) plus the
// observed bytes.
func (f *PageFTL) ReadData(off int64, buf []byte) (Ops, error) {
	if !f.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	ops, err := f.Read(off, int64(len(buf)))
	if err != nil {
		return ops, err
	}
	f.peekData(off, buf)
	return ops, nil
}

// peekData fills buf with the current bytes at off without any flash
// operation (zeros for unmapped or payload-free pages).
func (f *PageFTL) peekData(off int64, buf []byte) {
	clear(buf)
	pageSize := int64(f.arr.Geometry().PageSize)
	for covered := int64(0); covered < int64(len(buf)); {
		gp := (off + covered) / pageSize
		pageOff := (off + covered) % pageSize
		n := pageSize - pageOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		unit := gp * pageSize / f.unitBytes
		if ps := f.st.FMap[unit]; ps >= 0 {
			block := int(ps / int64(f.unitsPerBlock))
			slot := int(ps % int64(f.unitsPerBlock))
			pageInUnit := int(gp % (f.unitBytes / pageSize))
			if data, err := f.arr.PageData(block, slot*f.pagesPerUnit+pageInUnit); err == nil {
				if int64(len(data)) > pageOff {
					copy(buf[covered:covered+n], data[pageOff:])
				}
			}
		}
		covered += n
	}
}

// pickWP returns the write point for a unit: a stream whose last unit is the
// immediate predecessor continues; otherwise the least-recently-used stream
// is reassigned.
func (f *PageFTL) pickWP(unit int64) *WritePoint {
	var lru *WritePoint
	for i := range f.st.WPs {
		wp := &f.st.WPs[i]
		if wp.LastUnit+1 == unit || wp.LastUnit == unit {
			return wp
		}
		if lru == nil || wp.LastUse < lru.LastUse {
			lru = wp
		}
	}
	return lru
}

// Write services a host write.
func (f *PageFTL) Write(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.st.Stats.HostWrites++
	pageSize := int64(f.arr.Geometry().PageSize)
	f.st.Stats.HostPagesWritten += (off+length-1)/pageSize - off/pageSize + 1
	journal := f.cfg.JournalMaxBytes > 0 && length <= f.cfg.JournalMaxBytes && length < f.unitBytes
	u0 := off / f.unitBytes
	u1 := (off + length - 1) / f.unitBytes
	for u := u0; u <= u1; u++ {
		us := u * f.unitBytes
		ws := max64(off, us)
		we := min64(off+length, us+f.unitBytes)
		writtenPages := int((we-1)/pageSize - ws/pageSize + 1)
		// Pages of the unit not fully overwritten must be read first
		// (read-modify-write); this is the mechanism behind the
		// alignment penalty of the Alignment micro-benchmark.
		firstFull := (ws - us + pageSize - 1) / pageSize
		lastFull := (we - us) / pageSize
		fullyCovered := int(lastFull - firstFull)
		if fullyCovered < 0 {
			fullyCovered = 0
		}
		oldPages := f.pagesPerUnit - fullyCovered
		if !journal && oldPages > 0 && f.st.FMap[u] >= 0 {
			old := f.st.FMap[u]
			block := int(old / int64(f.unitsPerBlock))
			slot := int(old % int64(f.unitsPerBlock))
			for p := 0; p < oldPages && p < f.pagesPerUnit; p++ {
				if err := f.arr.ReadPage(block, slot*f.pagesPerUnit+p); err != nil {
					return ops, fmt.Errorf("ftl: rmw read: %w", err)
				}
			}
			ops.MergeReads += oldPages
			f.st.Stats.PagesRead += int64(oldPages)
		}
		hostPages := writtenPages
		if f.st.FMap[u] < 0 {
			// Nothing to copy for an unmapped unit: the blank filler
			// pages stream like host data (the out-of-box cheapness of
			// Section 4.1).
			hostPages = f.pagesPerUnit
		}
		wp := f.pickWP(u)
		if err := f.appendUnit(wp, u, &ops, false, hostPages); err != nil {
			return ops, err
		}
		if journal && writtenPages < f.pagesPerUnit {
			// Journal path: charge only the pages actually written. The
			// relocation's filler pages were counted as merge copies
			// (mapped unit) or blank host programs (unmapped unit).
			if hostPages == f.pagesPerUnit {
				ops.PagePrograms -= f.pagesPerUnit - writtenPages
			} else {
				ops.MergePrograms -= f.pagesPerUnit - writtenPages
			}
		}
	}
	f.st.LastReadSlot = -2
	return ops, nil
}

// Read services a host read.
func (f *PageFTL) Read(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.st.Stats.HostReads++
	pageSize := int64(f.arr.Geometry().PageSize)
	p0 := off / pageSize
	p1 := (off + length - 1) / pageSize
	first := true
	for gp := p0; gp <= p1; gp++ {
		unit := gp * pageSize / f.unitBytes
		ps := f.st.FMap[unit]
		if ps < 0 {
			// Unmapped: the device returns a deterministic pattern
			// straight from the controller.
			ops.RAMBytes += pageSize
			continue
		}
		block := int(ps / int64(f.unitsPerBlock))
		slot := int(ps % int64(f.unitsPerBlock))
		pageInUnit := int(gp % (f.unitBytes / pageSize))
		page := slot*f.pagesPerUnit + pageInUnit
		if err := f.arr.ReadPage(block, page); err != nil {
			return ops, fmt.Errorf("ftl: read: %w", err)
		}
		ops.PageReads++
		f.st.Stats.PagesRead++
		physSlot := int64(block)*int64(f.arr.Geometry().PagesPerBlock) + int64(page)
		if physSlot == f.st.LastReadSlot+1 {
			ops.SeqPageReads++
		} else if first {
			ops.Stall += f.model.ReadSeek
		}
		first = false
		f.st.LastReadSlot = physSlot
	}
	// Lingering reclamation (Figure 5): while the free pool is below
	// target, background collection steals time from reads.
	if f.cfg.AsyncReclaim && f.cfg.ReadSteal > 0 && f.st.Free.Len() < f.cfg.ReserveBlocks && f.st.Victims.Len() > 0 {
		stall := time.Duration(f.cfg.ReadSteal * float64(f.model.Cost(ops)))
		ops.Stall += stall
		f.reclaimWithCredit(stall)
	}
	return ops, nil
}

// Idle grants idle host time to background reclamation.
func (f *PageFTL) Idle(d time.Duration) {
	if !f.cfg.AsyncReclaim || d <= 0 {
		return
	}
	f.reclaimWithCredit(d)
}

func (f *PageFTL) reclaimWithCredit(d time.Duration) {
	f.st.IdleCredit += d
	// Cap the credit so an hour of idleness cannot fund unbounded future
	// work in zero time.
	maxCredit := f.model.ReclaimCost(f.unitsPerBlock*f.pagesPerUnit) * time.Duration(f.cfg.ReserveBlocks)
	if f.st.IdleCredit > maxCredit {
		f.st.IdleCredit = maxCredit
	}
	// Idle time cannot be banked: once the pool is back at its target the
	// remaining credit evaporates (a device cannot save past idleness to
	// spend during a later burst).
	defer func() {
		if f.st.Free.Len() >= f.cfg.ReserveBlocks {
			f.st.IdleCredit = 0
		}
	}()
	for f.st.Free.Len() < f.cfg.ReserveBlocks && f.st.Victims.Len() > 0 {
		// Peek at the cheapest victim to price the reclamation.
		victim, ok := f.popVictim()
		if !ok {
			return
		}
		cost := f.model.ReclaimCost(int(f.st.Live[victim]) * f.pagesPerUnit)
		if f.st.IdleCredit < cost {
			// Not enough idle time; put the victim back.
			f.pushVictim(victim)
			return
		}
		// Re-push and collect through the normal path so maps stay
		// consistent; the ops are absorbed by the idle credit.
		f.pushVictim(victim)
		var bg Ops
		if err := f.collectOne(&bg); err != nil {
			return
		}
		f.st.IdleCredit -= cost
		f.st.Stats.AsyncReclaims++
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
