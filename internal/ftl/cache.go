package ftl

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"time"
)

// CacheConfig configures a WriteCache.
//
// The buffer is organized in regions (one region per underlying mapping /
// flash block) and distinguishes two kinds of dirty regions, which is the
// mechanism behind several Table 3 behaviours at once:
//
//   - zone regions hold data written out of order (random, reverse,
//     in-place). They stay resident up to CapacityBytes — the "locality
//     area" of Table 3 — and are evicted LRU, each eviction costing the FTL
//     a read-modify-write merge when the region is incomplete.
//   - stream regions are write-combining buffers for detected sequential
//     streams (a region promotes from zone to stream when a write extends
//     it in ascending order). At most Streams of them exist; exceeding the
//     bound force-flushes the least recently used stream partially — the
//     Partitioning cliff.
//
// Fully written regions flush immediately in either kind: the FTL completes
// them with a cheap switch merge, which is why sequential and reverse
// patterns stay cheap on buffered devices.
type CacheConfig struct {
	// CapacityBytes is the buffer size — the locality area of Table 3.
	CapacityBytes int64
	// LineBytes is the dirty-tracking granularity (e.g. 4096).
	LineBytes int
	// RegionBytes is the coalescing granularity, normally the FTL mapping
	// block size.
	RegionBytes int
	// Streams bounds concurrently open stream regions (0 = unlimited).
	Streams int
	// FlashBacked marks the buffer as a flash log zone rather than RAM:
	// admissions cost explicit per-page time (zone appends plus internal
	// bookkeeping/compaction) and dirty-line reads cost page reads
	// instead of RAM transfers.
	FlashBacked bool
	// PageBytes is the flash page size, used to price flash-backed
	// admissions and zone reads.
	PageBytes int
	// SeqAdmitPerPage and RandAdmitPerPage are the calibrated per-page
	// admission costs of the flash-backed zone for ascending-extension
	// writes and for everything else (random, reverse, in-place). The
	// gap between the two is the zone's compaction overhead, which the
	// devices do not document — these are black-box coefficients fitted
	// to Table 3.
	SeqAdmitPerPage  time.Duration
	RandAdmitPerPage time.Duration
	// EvictBatch is how many LRU regions one capacity eviction episode
	// flushes (default 1). Batching concentrates the merge work of
	// several writes into one, producing the cheap/expensive oscillation
	// of the running phase (Figure 3).
	EvictBatch int
	// DestageOnIdle lets idle time drain dirty regions in LRU order.
	DestageOnIdle bool
}

func (c CacheConfig) validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("ftl: cache CapacityBytes must be positive")
	case c.LineBytes <= 0:
		return fmt.Errorf("ftl: cache LineBytes must be positive")
	case c.RegionBytes < c.LineBytes || c.RegionBytes%c.LineBytes != 0:
		return fmt.Errorf("ftl: RegionBytes %d must be a multiple of LineBytes %d", c.RegionBytes, c.LineBytes)
	case c.CapacityBytes < int64(c.RegionBytes):
		return fmt.Errorf("ftl: cache capacity %d smaller than one region %d", c.CapacityBytes, c.RegionBytes)
	case c.FlashBacked && c.PageBytes <= 0:
		return fmt.Errorf("ftl: flash-backed cache needs PageBytes")
	}
	return nil
}

// CacheRegion is one buffered cache region, as plain data.
type CacheRegion struct {
	ID      int64
	Lines   []uint64 // dirty-line bitset, bit l = line l within the region
	NLines  int64    // population count of Lines
	MaxLine int64    // highest dirty line so far
	Stream  bool
}

// cacheRegion is a resident region: its state plus the intrusive links of
// the LRU chain it is on (streamLRU or zoneLRU); next doubles as the
// freelist link when the region is not resident.
type cacheRegion struct {
	st         CacheRegion
	prev, next *cacheRegion
}

func (r *cacheRegion) dirty(line int64) bool {
	return r.st.Lines[line>>6]&(1<<(uint(line)&63)) != 0
}

// regionList is an intrusive doubly-linked LRU chain (front = MRU). Using the
// regions' own links instead of container/list keeps the write hot path free
// of per-element allocations.
type regionList struct {
	front, back *cacheRegion
	n           int
}

// Len returns the number of regions on the chain.
func (l *regionList) Len() int { return l.n }

// all yields the state of every region on the chain, front (MRU) first.
func (l *regionList) all() iter.Seq[CacheRegion] {
	return func(yield func(CacheRegion) bool) {
		for r := l.front; r != nil && yield(r.st); r = r.next {
		}
	}
}

// chainOf links standalone copies of regions, in order, into a detached
// chain (a decoded state's input to rebuild).
func chainOf(regions []CacheRegion) *regionList {
	l := new(regionList)
	for _, st := range regions {
		l.pushBack(&cacheRegion{st: st})
	}
	return l
}

func (l *regionList) pushFront(r *cacheRegion) {
	r.prev, r.next = nil, l.front
	if l.front != nil {
		l.front.prev = r
	} else {
		l.back = r
	}
	l.front = r
	l.n++
}

func (l *regionList) pushBack(r *cacheRegion) {
	r.prev, r.next = l.back, nil
	if l.back != nil {
		l.back.next = r
	} else {
		l.front = r
	}
	l.back = r
	l.n++
}

func (l *regionList) remove(r *cacheRegion) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.front = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.back = r.prev
	}
	r.prev, r.next = nil, nil
	l.n--
}

func (l *regionList) moveToFront(r *cacheRegion) {
	if l.front == r {
		return
	}
	l.remove(r)
	l.pushFront(r)
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits          int64 // writes to lines already dirty
	Misses        int64 // writes dirtying new lines
	CompleteFlush int64 // immediate flushes of fully written regions
	StreamFlushes int64 // partial flushes forced by the Streams bound
	CapFlushes    int64 // evictions forced by capacity
	IdleDestages  int64 // flushes performed during idle time
	Promotions    int64 // zone -> stream promotions
}

// CacheState is the complete mutable state of a WriteCache, as plain data
// (the layer underneath carries its own): Clone deep-copies it and the
// persistent state store encodes it.
type CacheState struct {
	// StreamLRU and ZoneLRU are the region chains flattened front (MRU)
	// first. A live cache keeps its regions on linked chains instead and
	// leaves these nil: SnapshotTranslator flattens the chains into them,
	// and Restore rebuilds the chains from them.
	StreamLRU []CacheRegion
	ZoneLRU   []CacheRegion

	TotalLines int64
	Stats      CacheStats
	IdleCredit time.Duration

	// LineData holds buffered line payloads; nil unless the stack stores
	// data.
	LineData map[int64][]byte
}

// cloneInto overwrites dst with a deep copy of s, reusing dst's line-data
// map and buffers; a zero dst allocates.
func (s *CacheState) cloneInto(dst *CacheState) {
	lineData := dst.LineData
	*dst = *s
	dst.StreamLRU = copyRegions(slices.Values(s.StreamLRU))
	dst.ZoneLRU = copyRegions(slices.Values(s.ZoneLRU))
	if s.LineData == nil {
		return
	}
	if lineData == nil {
		lineData = make(map[int64][]byte, len(s.LineData))
	}
	for l := range lineData {
		if _, ok := s.LineData[l]; !ok {
			delete(lineData, l)
		}
	}
	for l, buf := range s.LineData {
		lineData[l] = append(lineData[l][:0], buf...)
	}
	dst.LineData = lineData
}

// copyRegions collects regions, each with its own copy of the bitset words.
func copyRegions(regions iter.Seq[CacheRegion]) []CacheRegion {
	var out []CacheRegion
	for r := range regions {
		r.Lines = append([]uint64(nil), r.Lines...)
		out = append(out, r)
	}
	return out
}

// WriteCache models the controller write buffer in front of the translation
// layer (Section 2.2: the FTL "might be able to cache and destage both data
// and bookkeeping information").
type WriteCache struct {
	inner Translator
	model CostModel   //uflint:shared — immutable cost tables
	cfg   CacheConfig //uflint:shared — immutable config from the profile

	linesPerRegion int64 //uflint:shared — derived from the config
	lineWords      int   //uflint:shared — bitset words per region, derived from the config
	capLines       int64 //uflint:shared — derived from the config

	st CacheState
	// regions is indexed by region id (logical offset / RegionBytes); nil
	// means the region holds no dirty lines. The dense index replaces a
	// map — region ids are bounded by the device capacity, and the write
	// hot path spends most of its time looking regions up.
	regions   []*cacheRegion //uflint:scratch — derived from the chains; rebuild lays it out
	streamLRU regionList
	zoneLRU   regionList
	// freeRegions recycles region structs (linked through next) so the
	// steady state of flush-then-redirty does not allocate.
	freeRegions *cacheRegion //uflint:scratch — allocation recycler, not state
	// backing and words are the region structs and bitset words rebuild
	// lays the resident set out in; a recycling clone reuses them.
	backing []cacheRegion //uflint:scratch — storage only; the chains and index are the state
	words   []uint64      //uflint:scratch — storage only; the chains and index are the state

	// touched is a per-call scratch buffer reused across writes so the hot
	// path does not allocate.
	touched []*cacheRegion //uflint:scratch — per-call buffer, dead between calls

	// Data plane (inner stack stores payloads only): the inner layer's data
	// interfaces, and a flush-run staging buffer.
	dataMode  bool
	innerData DataPlane //uflint:shared — wired at construction from the inner stack
	innerPeek peeker    //uflint:shared — wired at construction from the inner stack
	runBuf    []byte    //uflint:scratch — flush-run staging; contents dead between calls
}

// NewWriteCache wraps inner with a region-coalescing write-back buffer. A
// zero (or negative) EvictBatch takes the documented default of 1 region per
// eviction episode.
func NewWriteCache(inner Translator, cfg CacheConfig, model CostModel) (*WriteCache, error) {
	if cfg.EvictBatch <= 0 {
		cfg.EvictBatch = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	linesPerRegion := int64(cfg.RegionBytes / cfg.LineBytes)
	nRegions := (inner.Capacity() + int64(cfg.RegionBytes) - 1) / int64(cfg.RegionBytes)
	c := &WriteCache{
		inner:          inner,
		model:          model,
		cfg:            cfg,
		linesPerRegion: linesPerRegion,
		lineWords:      int((linesPerRegion + 63) / 64),
		capLines:       cfg.CapacityBytes / int64(cfg.LineBytes),
		regions:        make([]*cacheRegion, nRegions),
	}
	if dp, ok := inner.(DataPlane); ok && dp.StoresData() {
		c.dataMode = true
		c.st.LineData = make(map[int64][]byte)
		c.innerData = dp
		c.innerPeek = inner.(peeker)
	}
	return c, nil
}

// Capacity returns the logical capacity of the underlying layer.
func (c *WriteCache) Capacity() int64 { return c.inner.Capacity() }

// newRegion returns a reset region for rid, recycled from the freelist when
// possible.
func (c *WriteCache) newRegion(rid int64) *cacheRegion {
	r := c.freeRegions
	if r != nil {
		c.freeRegions = r.next
		r.next = nil
		clear(r.st.Lines)
		r.st = CacheRegion{ID: rid, Lines: r.st.Lines, MaxLine: -1}
		return r
	}
	return &cacheRegion{st: CacheRegion{ID: rid, Lines: make([]uint64, c.lineWords), MaxLine: -1}}
}

// Clone returns a deep copy of the cache — regions, dirty lines, both LRU
// chains in order, stats — stacked over a clone of the inner layer.
func (c *WriteCache) Clone() Translator { return c.cloneInto(nil) }

// cloneInto overwrites dst with a deep copy of c and the stack underneath
// and returns it, reusing dst's memory — the dense index, the region
// storage, the inner layers — where it fits; a nil dst allocates.
func (c *WriteCache) cloneInto(dst *WriteCache) *WriteCache {
	if dst == nil {
		dst = new(WriteCache)
	}
	old := *dst
	*dst = *c
	dst.inner = CloneInto(c.inner, old.inner)
	dst.st = old.st
	c.st.cloneInto(&dst.st)
	dst.regions = old.regions
	if len(dst.regions) == len(c.regions) {
		clear(dst.regions)
	} else {
		dst.regions = make([]*cacheRegion, len(c.regions))
	}
	dst.streamLRU, dst.zoneLRU = regionList{}, regionList{}
	dst.freeRegions = nil
	dst.backing, dst.words = old.backing, old.words
	if _, err := dst.rebuild(&c.streamLRU, &c.zoneLRU); err != nil {
		panic(fmt.Sprintf("ftl: cloning a write cache: %v", err))
	}
	dst.touched = old.touched[:0]
	dst.innerData, dst.innerPeek, dst.runBuf = nil, nil, nil
	if c.dataMode {
		dst.innerData = dst.inner.(DataPlane)
		dst.innerPeek = dst.inner.(peeker)
		dst.runBuf = old.runBuf
	}
	return dst
}

// rebuild makes copies of the regions on the given chains — the source
// cache's stream and zone chains, or chains decoded from a state — the
// resident set of a cache whose chains and dense index are empty, in the
// same order, and returns the number of dirty lines they hold. Every region
// lands in one backing array with one bitset block, reused from an earlier
// rebuild when large enough and otherwise allocated up front, because
// cloning is the shard fan-out hot path; Restore lays out a decoded state
// the same way. The checks only fail on a state read from outside.
func (c *WriteCache) rebuild(streams, zones *regionList) (int64, error) {
	n := streams.n + zones.n
	if cap(c.backing) < n {
		c.backing = make([]cacheRegion, n)
	}
	if cap(c.words) < n*c.lineWords {
		c.words = make([]uint64, n*c.lineWords)
	}
	backing, words := c.backing[:n], c.words[:n*c.lineWords]
	var lines int64
	i := 0
	for _, chain := range [...]struct {
		regions *regionList
		stream  bool
	}{{streams, true}, {zones, false}} {
		for r := chain.regions.front; r != nil; r = r.next {
			src := r.st
			switch {
			case src.Stream != chain.stream:
				return 0, fmt.Errorf("ftl: region %d in the wrong LRU chain", src.ID)
			case src.ID < 0 || src.ID >= int64(len(c.regions)):
				return 0, fmt.Errorf("ftl: region %d out of range", src.ID)
			case c.regions[src.ID] != nil:
				return 0, fmt.Errorf("ftl: region %d appears twice in the state", src.ID)
			case len(src.Lines) != c.lineWords:
				return 0, fmt.Errorf("ftl: region %d has %d bitset words, want %d", src.ID, len(src.Lines), c.lineWords)
			}
			var set int64
			for _, w := range src.Lines {
				set += int64(bits.OnesCount64(w))
			}
			if rem := c.linesPerRegion % 64; rem != 0 && src.Lines[c.lineWords-1]>>rem != 0 {
				return 0, fmt.Errorf("ftl: region %d marks lines beyond %d", src.ID, c.linesPerRegion)
			}
			if set != src.NLines {
				return 0, fmt.Errorf("ftl: region %d claims %d dirty lines, its bitset holds %d", src.ID, src.NLines, set)
			}
			nr := &backing[i]
			nr.st = src
			nr.st.Lines = words[i*c.lineWords : (i+1)*c.lineWords : (i+1)*c.lineWords]
			copy(nr.st.Lines, src.Lines)
			c.lruOf(nr).pushBack(nr)
			c.regions[src.ID] = nr
			lines += src.NLines
			i++
		}
	}
	return lines, nil
}

// Stats returns a snapshot of the cache counters.
func (c *WriteCache) Stats() CacheStats { return c.st.Stats }

// DirtyLines returns the number of buffered dirty lines.
func (c *WriteCache) DirtyLines() int64 { return c.st.TotalLines }

// OpenRegions returns the number of regions holding dirty lines.
func (c *WriteCache) OpenRegions() int { return c.streamLRU.n + c.zoneLRU.n }

// Inner returns the wrapped translation layer.
func (c *WriteCache) Inner() Translator { return c.inner }

func (c *WriteCache) lruOf(r *cacheRegion) *regionList {
	if r.st.Stream {
		return &c.streamLRU
	}
	return &c.zoneLRU
}

// flushRegion writes all dirty lines of r through to the inner layer as
// contiguous runs and removes the region. In data mode the buffered line
// bytes travel down with each run (zeros for lines dirtied through the
// plain, payload-less Write).
func (c *WriteCache) flushRegion(r *cacheRegion, ops *Ops) error {
	c.lruOf(r).remove(r)
	c.regions[r.st.ID] = nil
	c.st.TotalLines -= r.st.NLines
	lb := int64(c.cfg.LineBytes)
	base := r.st.ID * int64(c.cfg.RegionBytes)
	firstLine := r.st.ID * c.linesPerRegion
	var runStart int64 = -1
	flushRun := func(endExclusive int64) error {
		if runStart < 0 {
			return nil
		}
		off, length := base+runStart*lb, (endExclusive-runStart)*lb
		var inner Ops
		var err error
		if c.dataMode {
			if int64(len(c.runBuf)) < length {
				c.runBuf = make([]byte, c.cfg.RegionBytes)
			}
			run := c.runBuf[:length]
			clear(run)
			for l := runStart; l < endExclusive; l++ {
				if buf, ok := c.st.LineData[firstLine+l]; ok {
					copy(run[(l-runStart)*lb:], buf)
					delete(c.st.LineData, firstLine+l)
				}
			}
			inner, err = c.innerData.WriteData(off, run)
		} else {
			inner, err = c.inner.Write(off, length)
		}
		if err != nil {
			return err
		}
		ops.Add(inner)
		runStart = -1
		return nil
	}
	for l := int64(0); l < c.linesPerRegion; l++ {
		if r.dirty(l) {
			if runStart < 0 {
				runStart = l
			}
			continue
		}
		if err := flushRun(l); err != nil {
			return err
		}
	}
	if err := flushRun(c.linesPerRegion); err != nil {
		return err
	}
	// Park the struct for reuse only after a complete flush; an error above
	// leaves it detached so callers holding the pointer never see it recycled.
	r.prev, r.next = nil, c.freeRegions
	c.freeRegions = r
	return nil
}

// admitCost charges the buffer-admission cost for bytes written, sequential
// or not.
func (c *WriteCache) admitCost(bytes int64, sequential bool, ops *Ops) {
	if !c.cfg.FlashBacked {
		ops.RAMBytes += bytes
		return
	}
	pages := (bytes + int64(c.cfg.PageBytes) - 1) / int64(c.cfg.PageBytes)
	if pages < 1 {
		pages = 1
	}
	per := c.cfg.RandAdmitPerPage
	if sequential {
		per = c.cfg.SeqAdmitPerPage
	}
	ops.Stall += time.Duration(pages) * per
}

// Write buffers the lines the write covers, applying the stream/zone policy.
func (c *WriteCache) Write(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + length - 1) / lb
	seq := true
	touched := c.touched[:0]
	for gl := l0; gl <= l1; {
		rid := gl / c.linesPerRegion
		r := c.regions[rid]
		if r == nil {
			r = c.newRegion(rid)
			c.zoneLRU.pushFront(r)
			c.regions[rid] = r
		}
		firstLine := gl % c.linesPerRegion
		ascending := r.st.MaxLine >= 0 && firstLine == r.st.MaxLine+1
		// A write opening a region at its start is charged as a
		// sequential append (the zone cannot tell yet), but promotion
		// to a stream buffer still requires a confirmed extension.
		openAtStart := r.st.MaxLine < 0 && firstLine == 0
		switch {
		case ascending && !r.st.Stream:
			// A write extending the region in order reveals a
			// sequential stream: promote to a write-combining buffer.
			c.zoneLRU.remove(r)
			r.st.Stream = true
			c.streamLRU.pushFront(r)
			c.st.Stats.Promotions++
		case !ascending && r.st.MaxLine >= 0 && r.st.Stream:
			// Out-of-order write to a stream buffer: demote.
			c.streamLRU.remove(r)
			r.st.Stream = false
			c.zoneLRU.pushFront(r)
		default:
			c.lruOf(r).moveToFront(r)
		}
		if !ascending && !openAtStart {
			seq = false
		}
		regionEnd := (rid + 1) * c.linesPerRegion
		for ; gl <= l1 && gl < regionEnd; gl++ {
			lineInR := gl - rid*c.linesPerRegion
			w, bit := lineInR>>6, uint64(1)<<(uint(lineInR)&63)
			if r.st.Lines[w]&bit != 0 {
				c.st.Stats.Hits++
			} else {
				c.st.Stats.Misses++
				r.st.Lines[w] |= bit
				r.st.NLines++
				c.st.TotalLines++
			}
			if lineInR > r.st.MaxLine {
				r.st.MaxLine = lineInR
			}
		}
		touched = append(touched, r)
	}
	defer func() {
		clear(touched) // drop region pointers so flushed regions can be freed
		c.touched = touched[:0]
	}()
	c.admitCost(length, seq, &ops)

	// Fully written regions flush immediately (cheap switch merge below).
	for _, r := range touched {
		if c.regions[r.st.ID] == r && r.st.NLines == c.linesPerRegion {
			c.st.Stats.CompleteFlush++
			if err := c.flushRegion(r, &ops); err != nil {
				return ops, err
			}
		}
	}
	// Stream bound: too many concurrent sequential streams force partial
	// flushes (the Partitioning cliff).
	for c.cfg.Streams > 0 && c.streamLRU.n > c.cfg.Streams {
		c.st.Stats.StreamFlushes++
		if err := c.flushRegion(c.streamLRU.back, &ops); err != nil {
			return ops, err
		}
	}
	// Capacity bound: evict LRU zone regions (streams as a last resort),
	// a batch at a time.
	if c.st.TotalLines > c.capLines {
		// EvictBatch is normalized to >= 1 by NewWriteCache.
		batch := c.cfg.EvictBatch
		for i := 0; (i < batch || c.st.TotalLines > c.capLines) && c.st.TotalLines > 0; i++ {
			var r *cacheRegion
			if c.zoneLRU.n > 0 {
				r = c.zoneLRU.back
			} else if c.streamLRU.n > 0 {
				r = c.streamLRU.back
			} else {
				break
			}
			c.st.Stats.CapFlushes++
			if err := c.flushRegion(r, &ops); err != nil {
				return ops, err
			}
		}
	}
	return ops, nil
}

// Read serves buffered lines from the cache and forwards contiguous
// unbuffered spans to the inner layer.
func (c *WriteCache) Read(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + length - 1) / lb
	spanStart := int64(-1)
	forward := func(endExclusive int64) error {
		if spanStart < 0 {
			return nil
		}
		inner, err := c.inner.Read(spanStart*lb, (endExclusive-spanStart)*lb)
		if err != nil {
			return err
		}
		ops.Add(inner)
		spanStart = -1
		return nil
	}
	for gl := l0; gl <= l1; gl++ {
		rid := gl / c.linesPerRegion
		if r := c.regions[rid]; r != nil {
			if r.dirty(gl % c.linesPerRegion) {
				if c.cfg.FlashBacked {
					pages := c.cfg.LineBytes / c.cfg.PageBytes
					if pages < 1 {
						pages = 1
					}
					ops.PageReads += pages
				} else {
					ops.RAMBytes += lb
				}
				if err := forward(gl); err != nil {
					return ops, err
				}
				continue
			}
		}
		if spanStart < 0 {
			spanStart = gl
		}
	}
	if err := forward(l1 + 1); err != nil {
		return ops, err
	}
	return ops, nil
}

// StoresData reports whether the stack underneath retains payloads.
func (c *WriteCache) StoresData() bool { return c.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the bytes buffered per line (and pushed down with every flush). Lines only
// partially covered by the write are read-filled from the inner layer first,
// so a later flush writes whole lines with correct content.
func (c *WriteCache) WriteData(off int64, data []byte) (Ops, error) {
	if !c.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	if err := checkRange(off, int64(len(data)), c.inner.Capacity()); err != nil {
		return Ops{}, err
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + int64(len(data)) - 1) / lb
	for gl := l0; gl <= l1; gl++ {
		buf, ok := c.st.LineData[gl]
		if !ok {
			buf = make([]byte, lb)
			lineStart := gl * lb
			if lineStart < off || lineStart+lb > off+int64(len(data)) {
				// Partially covered fresh line: fill with the bytes below
				// (a dirty-but-bufferless line from a plain Write stays
				// zeros — its content is unspecified anyway).
				if r := c.regions[gl/c.linesPerRegion]; r == nil || !r.dirty(gl%c.linesPerRegion) {
					c.innerPeek.peekData(lineStart, buf)
				}
			}
			c.st.LineData[gl] = buf
		}
		overlay(buf, gl*lb, data, off)
	}
	return c.Write(off, int64(len(data)))
}

// ReadData implements the data plane: exactly Read(off, len(buf)) plus the
// observed bytes — buffered lines from the cache, the rest from below.
func (c *WriteCache) ReadData(off int64, buf []byte) (Ops, error) {
	if !c.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	ops, err := c.Read(off, int64(len(buf)))
	if err != nil {
		return ops, err
	}
	c.peekData(off, buf)
	return ops, nil
}

// peekData fills buf with the current bytes at off without any flash
// operation: dirty buffered lines win over the inner layer's content.
func (c *WriteCache) peekData(off int64, buf []byte) {
	lb := int64(c.cfg.LineBytes)
	for covered := int64(0); covered < int64(len(buf)); {
		gl := (off + covered) / lb
		lineOff := (off + covered) % lb
		n := lb - lineOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		dst := buf[covered : covered+n]
		r := c.regions[gl/c.linesPerRegion]
		switch {
		case r != nil && r.dirty(gl%c.linesPerRegion):
			clear(dst)
			if line, has := c.st.LineData[gl]; has {
				copy(dst, line[lineOff:])
			}
		default:
			c.innerPeek.peekData(off+covered, dst)
		}
		covered += n
	}
}

// Idle forwards idle time to the inner layer and, when configured, destages
// dirty regions with the remaining credit.
func (c *WriteCache) Idle(d time.Duration) {
	c.inner.Idle(d)
	if !c.cfg.DestageOnIdle || d <= 0 {
		return
	}
	c.st.IdleCredit += d
	const maxCredit = time.Second
	if c.st.IdleCredit > maxCredit {
		c.st.IdleCredit = maxCredit
	}
	for c.st.IdleCredit > 0 && (c.zoneLRU.n > 0 || c.streamLRU.n > 0) {
		var r *cacheRegion
		if c.zoneLRU.n > 0 {
			r = c.zoneLRU.back
		} else {
			r = c.streamLRU.back
		}
		var ops Ops
		c.st.Stats.IdleDestages++
		if err := c.flushRegion(r, &ops); err != nil {
			return
		}
		cost := c.model.Cost(ops)
		if cost <= 0 {
			cost = time.Microsecond
		}
		c.st.IdleCredit -= cost
	}
}
