package ftl

import (
	"fmt"
	"time"
)

// BlockConfig configures a BlockFTL.
type BlockConfig struct {
	// LogicalBytes is the capacity exposed to the host. The array must
	// provide at least LogicalBytes/blockSize + LogBlocks + 2 blocks.
	LogicalBytes int64
	// LogBlocks is the number of replacement (log) blocks available
	// concurrently. Sequential streams beyond this count evict each
	// other's logs and pay a full merge per IO — the Partitioning cliff.
	LogBlocks int
	// MapDirtyLimit and MapUnitsPerPage model the on-flash map
	// bookkeeping exactly as in PageConfig (entries here are per logical
	// block, so one map page covers a large span).
	MapDirtyLimit   int
	MapUnitsPerPage int
}

func (c BlockConfig) validate(a *Array) error {
	switch {
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.LogBlocks < 1:
		return fmt.Errorf("ftl: LogBlocks must be >= 1")
	case c.MapDirtyLimit < 1 || c.MapUnitsPerPage < 1:
		return fmt.Errorf("ftl: map bookkeeping parameters must be >= 1")
	}
	blockSize := int64(a.Geometry().BlockSize())
	lbns := (c.LogicalBytes + blockSize - 1) / blockSize
	need := lbns + int64(c.LogBlocks) + 2
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, block FTL needs >= %d (logical %d + logs %d + 2)",
			a.Blocks(), need, lbns, c.LogBlocks)
	}
	return nil
}

// LogBlock is one replacement ("log") block slot of a BlockFTL.
type LogBlock struct {
	LBN      int64 // logical block the log replaces, -1 for a free slot
	PB       int   // physical replacement block
	NextPage int   // pages [0,NextPage) programmed, 1:1 with block offsets
	LastUse  int64
}

// BlockFTLState is the complete mutable state of a BlockFTL, as plain data
// (the flash array underneath carries its own): Clone deep-copies it and the
// persistent state store encodes it.
type BlockFTLState struct {
	Data []int32 // lbn -> physical block, -1 unmapped
	// Logs holds the LogBlocks replacement slots. Slots never move, so a
	// *LogBlock stays valid while other logs come and go.
	Logs []LogBlock
	Free minHeap[FreeBlock]
	Tick int64

	Book  MapBookState
	Stats Stats

	LastReadSlot int64
}

// cloneInto overwrites dst with a deep copy of s, reusing dst's slices; a
// zero dst allocates.
func (s *BlockFTLState) cloneInto(dst *BlockFTLState) {
	old := *dst
	*dst = *s
	dst.Data = append(old.Data[:0], s.Data...)
	dst.Logs = append(old.Logs[:0], s.Logs...)
	dst.Free = append(old.Free[:0], s.Free...)
	dst.Book = old.Book
	s.Book.cloneInto(&dst.Book)
}

// BlockFTL is a block-granularity mapped flash translation layer with a
// bounded set of in-order replacement blocks: the design of the USB flash
// drives, SD cards and IDE modules in the paper's device set. Every logical
// block maps to at most one data block whose programmed pages form a
// contiguous prefix (a direct consequence of the chip's sequential-
// programming constraint), so out-of-order writes force full merges.
type BlockFTL struct {
	arr   *Array
	cfg   BlockConfig //uflint:shared — immutable config from the profile
	model CostModel   //uflint:shared — immutable cost tables

	blockBytes    int64 //uflint:shared — derived from the geometry
	pagesPerBlock int   //uflint:shared — derived from the geometry
	lbnCount      int64 //uflint:shared — derived from the geometry

	st   BlockFTLState
	book mapBook

	// Data plane (flash built with data storage only): pending host bytes
	// of the WriteData call in flight, and a one-page staging buffer.
	dataMode   bool   //uflint:shared — wired at construction from the flash build
	pending    []byte //uflint:scratch — alive only within one WriteData call
	pendingOff int64  //uflint:scratch — alive only within one WriteData call
	pageBuf    []byte //uflint:scratch — staging buffer; contents dead between calls
}

// NewBlockFTL builds a block-mapped FTL over the array. The flash must be in
// its factory (all-erased) state.
func NewBlockFTL(arr *Array, cfg BlockConfig, model CostModel) (*BlockFTL, error) {
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	geo := arr.Geometry()
	f := &BlockFTL{
		arr:           arr,
		cfg:           cfg,
		model:         model,
		blockBytes:    int64(geo.BlockSize()),
		pagesPerBlock: geo.PagesPerBlock,
	}
	f.lbnCount = (cfg.LogicalBytes + f.blockBytes - 1) / f.blockBytes
	f.st = BlockFTLState{
		Data:         make([]int32, f.lbnCount),
		Logs:         make([]LogBlock, cfg.LogBlocks),
		LastReadSlot: -2,
	}
	for i := range f.st.Data {
		f.st.Data[i] = -1
	}
	for i := range f.st.Logs {
		f.st.Logs[i].LBN = -1
	}
	for b := 0; b < arr.Blocks(); b++ {
		f.st.Free.Push(FreeBlock{Block: b, EraseCount: 0})
	}
	f.book, f.st.Book = newMapBook(int64(cfg.MapUnitsPerPage), cfg.MapDirtyLimit)
	if arr.StoresData() {
		f.dataMode = true
		f.pageBuf = make([]byte, geo.PageSize)
	}
	return f, nil
}

// Capacity returns the logical byte capacity.
func (f *BlockFTL) Capacity() int64 { return f.cfg.LogicalBytes }

// Clone returns a deep copy of the FTL and the flash array underneath.
func (f *BlockFTL) Clone() Translator { return f.cloneInto(nil) }

// cloneInto overwrites dst with a deep copy of f and the array underneath
// and returns it, reusing dst's memory; a nil dst allocates a new FTL.
func (f *BlockFTL) cloneInto(dst *BlockFTL) *BlockFTL {
	if dst == nil {
		dst = new(BlockFTL)
	}
	old := *dst
	*dst = *f
	dst.arr = f.arr.cloneInto(old.arr)
	dst.st = old.st
	f.st.cloneInto(&dst.st)
	dst.book = old.book
	f.book.cloneInto(&dst.book)
	dst.pending = nil
	dst.pageBuf = nil
	if f.dataMode {
		dst.pageBuf = old.pageBuf
		if len(dst.pageBuf) != len(f.pageBuf) {
			dst.pageBuf = make([]byte, len(f.pageBuf))
		}
	}
	return dst
}

// Stats returns a snapshot of the FTL counters.
func (f *BlockFTL) Stats() Stats { return f.st.Stats }

// ActiveLogs returns the number of replacement blocks currently in use.
func (f *BlockFTL) ActiveLogs() int {
	n := 0
	for i := range f.st.Logs {
		if f.st.Logs[i].LBN >= 0 {
			n++
		}
	}
	return n
}

// log returns the replacement block of lbn, or nil when it has none.
func (f *BlockFTL) log(lbn int64) *LogBlock {
	for i := range f.st.Logs {
		if f.st.Logs[i].LBN == lbn {
			return &f.st.Logs[i]
		}
	}
	return nil
}

// FreeBlocks returns the size of the erased pool.
func (f *BlockFTL) FreeBlocks() int { return f.st.Free.Len() }

func (f *BlockFTL) allocFree() (int, error) {
	if f.st.Free.Len() == 0 {
		return 0, ErrNoSpace
	}
	fb := f.st.Free.Pop()
	return fb.Block, nil
}

func (f *BlockFTL) pushFree(block int) {
	ec, _ := f.arr.EraseCount(block)
	f.st.Free.Push(FreeBlock{Block: block, EraseCount: ec})
}

// dataNext returns the programmed-prefix length of the lbn's data block
// (0 when unmapped).
func (f *BlockFTL) dataNext(lbn int64) int {
	pb := f.st.Data[lbn]
	if pb < 0 {
		return 0
	}
	n, _ := f.arr.NextProgramPage(int(pb))
	return n
}

// copyPages copies pages [from,to) of the lbn's data block into the log
// block at the same offsets, programming blank filler for pages the data
// block never held (the chip's sequential constraint requires every page of
// the gap to be programmed).
func (f *BlockFTL) copyPages(lbn int64, log *LogBlock, from, to int, ops *Ops) error {
	if to <= from {
		return nil
	}
	pb := int(f.st.Data[lbn])
	have := f.dataNext(lbn)
	for p := from; p < to; p++ {
		var payload []byte
		if f.st.Data[lbn] >= 0 && p < have {
			if err := f.arr.ReadPage(pb, p); err != nil {
				return fmt.Errorf("ftl: merge read: %w", err)
			}
			ops.MergeReads++
			f.st.Stats.PagesRead++
			if f.dataMode {
				payload, _ = f.arr.PageData(pb, p) // moved verbatim
			}
		}
		if err := f.arr.ProgramPageData(log.PB, p, payload); err != nil {
			return fmt.Errorf("ftl: merge program: %w", err)
		}
		ops.MergePrograms++
		f.st.Stats.PagesProgrammed++
	}
	log.NextPage = to
	return nil
}

// fullMerge completes the lbn's log block: the tail of the old data block is
// copied in, the old data block is erased and freed, and the log becomes the
// data block.
func (f *BlockFTL) fullMerge(lbn int64, ops *Ops) error {
	log := f.log(lbn)
	if log == nil {
		return nil
	}
	old := f.st.Data[lbn]
	oldNext := f.dataNext(lbn)
	f.st.Stats.Merges++
	if log.NextPage < oldNext {
		if err := f.copyPages(lbn, log, log.NextPage, oldNext, ops); err != nil {
			return err
		}
	} else if old < 0 || oldNext == 0 {
		f.st.Stats.SwitchMerges++
	}
	if old >= 0 {
		if err := f.arr.EraseBlock(int(old)); err != nil {
			return fmt.Errorf("ftl: merge erase: %w", err)
		}
		ops.Erases++
		f.st.Stats.BlocksErased++
		f.pushFree(int(old))
	}
	f.st.Data[lbn] = int32(log.PB)
	log.LBN = -1
	return nil
}

// allocLog attaches a fresh replacement block to lbn, evicting (merging) the
// least-recently-used log when all slots are taken.
func (f *BlockFTL) allocLog(lbn int64, ops *Ops) (*LogBlock, error) {
	var slot, victim *LogBlock
	for i := range f.st.Logs {
		e := &f.st.Logs[i]
		if e.LBN < 0 {
			slot = e
			break
		}
		// Strict total order on (LastUse, LBN): the LBN tie-break keeps
		// the choice independent of slot order even if two logs ever
		// share a tick.
		if victim == nil || e.LastUse < victim.LastUse || (e.LastUse == victim.LastUse && e.LBN < victim.LBN) {
			victim = e
		}
	}
	if slot == nil {
		if err := f.fullMerge(victim.LBN, ops); err != nil {
			return nil, err
		}
		slot = victim
	}
	pb, err := f.allocFree()
	if err != nil {
		return nil, err
	}
	f.st.Tick++
	*slot = LogBlock{LBN: lbn, PB: pb, LastUse: f.st.Tick}
	return slot, nil
}

// pageLocation resolves where page p of lbn currently lives: the log block,
// the data block, or nowhere.
func (f *BlockFTL) pageLocation(lbn int64, p int) (block int, ok bool) {
	if log := f.log(lbn); log != nil && p < log.NextPage {
		return log.PB, true
	}
	if f.st.Data[lbn] >= 0 && p < f.dataNext(lbn) {
		return int(f.st.Data[lbn]), true
	}
	return 0, false
}

// writeSegment services the part of a write that falls inside one logical
// block: bytes [start,end) relative to the block.
func (f *BlockFTL) writeSegment(lbn, start, end int64, ops *Ops) error {
	pageSize := int64(f.arr.Geometry().PageSize)
	sPage := int(start / pageSize)
	ePage := int((end - 1) / pageSize)

	// Read-modify-write for partial edge pages that already exist.
	if start%pageSize != 0 {
		if pb, ok := f.pageLocation(lbn, sPage); ok {
			if err := f.arr.ReadPage(pb, sPage); err != nil {
				return err
			}
			ops.MergeReads++
			f.st.Stats.PagesRead++
		}
	}
	if end%pageSize != 0 && ePage != sPage {
		if pb, ok := f.pageLocation(lbn, ePage); ok {
			if err := f.arr.ReadPage(pb, ePage); err != nil {
				return err
			}
			ops.MergeReads++
			f.st.Stats.PagesRead++
		}
	}

	log := f.log(lbn)
	if log == nil {
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage < log.NextPage {
		// Out-of-order rewrite (in-place, reverse, revisiting random
		// write): the log only appends, so merge and start over.
		if err := f.fullMerge(lbn, ops); err != nil {
			return err
		}
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage > log.NextPage {
		// Gap: pull the skipped pages forward to keep the 1:1 layout.
		if err := f.copyPages(lbn, log, log.NextPage, sPage, ops); err != nil {
			return err
		}
	}
	for p := sPage; p <= ePage; p++ {
		var payload []byte
		if f.dataMode {
			payload = f.stagePage(lbn, p)
		}
		if err := f.arr.ProgramPageData(log.PB, p, payload); err != nil {
			return fmt.Errorf("ftl: log program: %w", err)
		}
		ops.PagePrograms++
		f.st.Stats.PagesProgrammed++
	}
	log.NextPage = ePage + 1
	f.st.Tick++
	log.LastUse = f.st.Tick

	if log.NextPage == f.pagesPerBlock {
		// Fully written log: switch it in (cheap merge).
		if err := f.fullMerge(lbn, ops); err != nil {
			return err
		}
	}
	before := ops.MapFlushes
	f.book.touch(&f.st.Book, lbn, ops)
	f.st.Stats.MapFlushes += int64(ops.MapFlushes - before)
	return nil
}

// stagePage assembles the payload for page p of lbn during a host write:
// the page's current content (zeros when none) overlaid with the pending
// WriteData bytes that fall inside the page. A plain Write on a
// data-enabled stack has no pending bytes, leaving the covered range as the
// page's old content — "unspecified", as documented on DataPlane.
func (f *BlockFTL) stagePage(lbn int64, p int) []byte {
	clear(f.pageBuf)
	if pb, ok := f.pageLocation(lbn, p); ok {
		if data, err := f.arr.PageData(pb, p); err == nil {
			copy(f.pageBuf, data)
		}
	}
	if f.pending != nil {
		pageStart := lbn*f.blockBytes + int64(p)*int64(len(f.pageBuf))
		overlay(f.pageBuf, pageStart, f.pending, f.pendingOff)
	}
	return f.pageBuf
}

// StoresData reports whether the flash underneath retains payloads.
func (f *BlockFTL) StoresData() bool { return f.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across merges).
func (f *BlockFTL) WriteData(off int64, data []byte) (Ops, error) {
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
func (f *BlockFTL) ReadData(off int64, buf []byte) (Ops, error) {
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
// operation (zeros for unmapped pages).
func (f *BlockFTL) peekData(off int64, buf []byte) {
	clear(buf)
	pageSize := int64(f.arr.Geometry().PageSize)
	for covered := int64(0); covered < int64(len(buf)); {
		gp := (off + covered) / pageSize
		pageOff := (off + covered) % pageSize
		n := pageSize - pageOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		lbn := gp * pageSize / f.blockBytes
		pageInBlock := int(gp % (f.blockBytes / pageSize))
		if pb, ok := f.pageLocation(lbn, pageInBlock); ok {
			if data, err := f.arr.PageData(pb, pageInBlock); err == nil {
				if int64(len(data)) > pageOff {
					copy(buf[covered:covered+n], data[pageOff:])
				}
			}
		}
		covered += n
	}
}

// Write services a host write.
func (f *BlockFTL) Write(off, length int64) (Ops, error) {
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
	pos := off
	end := off + length
	for pos < end {
		lbn := pos / f.blockBytes
		segEnd := min64(end, (lbn+1)*f.blockBytes)
		if err := f.writeSegment(lbn, pos-lbn*f.blockBytes, segEnd-lbn*f.blockBytes, &ops); err != nil {
			return ops, err
		}
		pos = segEnd
	}
	f.st.LastReadSlot = -2
	return ops, nil
}

// Read services a host read.
func (f *BlockFTL) Read(off, length int64) (Ops, error) {
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
		lbn := gp * pageSize / f.blockBytes
		pageInBlock := int(gp % (f.blockBytes / pageSize))
		pb, ok := f.pageLocation(lbn, pageInBlock)
		if !ok {
			ops.RAMBytes += pageSize
			continue
		}
		if err := f.arr.ReadPage(pb, pageInBlock); err != nil {
			return ops, fmt.Errorf("ftl: read: %w", err)
		}
		ops.PageReads++
		f.st.Stats.PagesRead++
		physSlot := int64(pb)*int64(f.pagesPerBlock) + int64(pageInBlock)
		if physSlot == f.st.LastReadSlot+1 {
			ops.SeqPageReads++
		} else if first {
			ops.Stall += f.model.ReadSeek
		}
		first = false
		f.st.LastReadSlot = physSlot
	}
	return ops, nil
}

// Idle is a no-op: the low-end devices this FTL models perform no
// asynchronous reclamation, which is why pauses do not help them (Table 3,
// Pause column).
func (f *BlockFTL) Idle(time.Duration) {}
