// Package flash models NAND flash chips at the level of detail Section 2.1 of
// the uFLIP paper describes: independent arrays of cells (flash blocks) made
// of rows (flash pages), read/program/erase as the basic operations, pages
// programmed sequentially within a block to limit write errors, erase only at
// block granularity, a bounded erase budget per block (smaller for MLC than
// SLC), wear tracking and bad-block marking, two planes (even/odd blocks)
// that can operate concurrently, and an optional page register cache.
//
// The chip does not store payload data by default — the simulator is about
// timing, and a 32 GB device would need 32 GB of RAM — but payload storage
// can be enabled for integrity testing on small chips.
package flash

import (
	"errors"
	"fmt"
	"time"
)

// CellType distinguishes single- and multi-level cell chips (Section 2.1).
type CellType int

const (
	// SLC stores one bit per cell: faster, ~10^6 erases per block.
	SLC CellType = iota
	// MLC stores two or more bits per cell: denser, slower, ~10^5 erases.
	MLC
)

// String returns "SLC" or "MLC".
func (c CellType) String() string {
	if c == SLC {
		return "SLC"
	}
	return "MLC"
}

// EraseLimit returns the nominal erase budget per block for the cell type.
func (c CellType) EraseLimit() int {
	if c == SLC {
		return 1_000_000
	}
	return 100_000
}

// Geometry describes the physical layout of one chip.
type Geometry struct {
	PageSize      int // data bytes per flash page (typically 2048)
	OOBSize       int // out-of-band bytes per page for ECC/bookkeeping (typically 64)
	PagesPerBlock int // typically 64
	Blocks        int // total flash blocks on the chip (across planes)
	Planes        int // 1 or 2; with 2, even blocks are plane 0, odd plane 1
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d must be positive", g.PageSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d must be positive", g.PagesPerBlock)
	case g.Blocks <= 0:
		return fmt.Errorf("flash: Blocks %d must be positive", g.Blocks)
	case g.Planes != 1 && g.Planes != 2:
		return fmt.Errorf("flash: Planes %d must be 1 or 2", g.Planes)
	case g.OOBSize < 0:
		return fmt.Errorf("flash: OOBSize %d must be non-negative", g.OOBSize)
	}
	return nil
}

// BlockSize returns the data capacity of one flash block in bytes.
func (g Geometry) BlockSize() int { return g.PageSize * g.PagesPerBlock }

// Capacity returns the data capacity of the chip in bytes.
func (g Geometry) Capacity() int64 { return int64(g.BlockSize()) * int64(g.Blocks) }

// Plane returns the plane a block belongs to (even blocks plane 0, odd 1).
func (g Geometry) Plane(block int) int {
	if g.Planes == 1 {
		return 0
	}
	return block % 2
}

// Timing holds the latencies of the three basic chip operations plus the
// per-byte transfer cost between the page register and the controller.
type Timing struct {
	ReadPage    time.Duration // cell array -> page register
	ProgramPage time.Duration // page register -> cell array
	EraseBlock  time.Duration
	PerByte     time.Duration // register <-> controller transfer, per byte
}

// TypicalTiming returns datasheet-representative timings for the cell type
// (2008-era chips: SLC ~25us read, ~200us program, ~1.5ms erase; MLC ~50us
// read, ~800us program, ~3ms erase; ~25ns/byte transfer).
func TypicalTiming(c CellType) Timing {
	if c == SLC {
		return Timing{
			ReadPage:    25 * time.Microsecond,
			ProgramPage: 200 * time.Microsecond,
			EraseBlock:  1500 * time.Microsecond,
			PerByte:     25 * time.Nanosecond,
		}
	}
	return Timing{
		ReadPage:    50 * time.Microsecond,
		ProgramPage: 800 * time.Microsecond,
		EraseBlock:  3 * time.Millisecond,
		PerByte:     25 * time.Nanosecond,
	}
}

// Errors returned by chip operations.
var (
	ErrBadBlock       = errors.New("flash: block is marked bad")
	ErrWornOut        = errors.New("flash: block exceeded its erase budget")
	ErrNotErased      = errors.New("flash: programming a page that is not erased")
	ErrOutOfOrder     = errors.New("flash: pages must be programmed sequentially within a block")
	ErrOutOfRange     = errors.New("flash: address out of range")
	ErrReadErased     = errors.New("flash: reading an erased page")
	ErrDataDisabled   = errors.New("flash: payload storage is disabled on this chip")
	ErrBadGeometry    = errors.New("flash: invalid geometry")
	ErrPayloadTooLong = errors.New("flash: payload longer than page size")
)

// PageState tracks what the chip knows about a page. (Validity of the data —
// live vs obsolete — is the FTL's concern, not the chip's.)
type PageState uint8

const (
	// PageErased means the page holds all-ones and may be programmed.
	PageErased PageState = iota
	// PageProgrammed means the page holds data.
	PageProgrammed
)

// BlockState is the mutable state of one flash block.
type BlockState struct {
	EraseCount int
	NextPage   int // next programmable page index (sequential constraint)
	Bad        bool
}

// Stats aggregates chip-level counters, useful for wear-leveling tests and
// for verifying that the FTL issues the operations the cost model charges.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// ChipState is the complete mutable state of a chip, as plain data: Clone
// deep-copies it and the persistent state store encodes it.
type ChipState struct {
	// Geometry and Cell never change after construction; they travel with
	// the state so Restore can refuse the state of a different chip.
	Geometry Geometry
	Cell     CellType

	Blocks []BlockState
	// Pages holds every page's state in one flat slice indexed
	// block*PagesPerBlock+page, so cloning the chip is two bulk copies
	// instead of one allocation per block.
	Pages []PageState
	Stats Stats

	// CachedBlock/CachedPage track the page currently held in the page
	// register of each plane; re-reading it skips the cell-array read.
	CachedBlock []int
	CachedPage  []int

	// Data holds page payloads (key: global page index); nil unless the
	// chip stores data.
	Data map[int64][]byte
}

// clone returns a deep copy of the state.
func (s *ChipState) clone() ChipState {
	g := *s
	g.Blocks = append([]BlockState(nil), s.Blocks...)
	g.Pages = append([]PageState(nil), s.Pages...)
	g.CachedBlock = append([]int(nil), s.CachedBlock...)
	g.CachedPage = append([]int(nil), s.CachedPage...)
	if s.Data != nil {
		g.Data = make(map[int64][]byte, len(s.Data))
		for k, v := range s.Data {
			g.Data[k] = append([]byte(nil), v...)
		}
	}
	return g
}

// Chip is one simulated NAND flash chip. It is not safe for concurrent use;
// the device serializes access, which also reflects how a single chip behaves
// behind its controller.
type Chip struct {
	timing Timing //uflint:shared — immutable cost table from the profile
	// transfer is the register <-> controller time for one page plus OOB,
	// precomputed from the timing so the per-IO paths do not multiply.
	transfer  time.Duration //uflint:shared — precomputed from the immutable timing
	storeData bool          // payload storage enabled (WithDataStorage)

	st ChipState
}

// Option configures a Chip at construction time.
type Option func(*Chip)

// WithDataStorage enables payload storage so tests can verify read-after-
// write integrity. Only sensible for small chips.
func WithDataStorage() Option {
	return func(c *Chip) {
		c.storeData = true
		c.st.Data = make(map[int64][]byte)
	}
}

// WithTiming overrides the default (datasheet-typical) timing.
func WithTiming(t Timing) Option {
	return func(c *Chip) { c.timing = t }
}

// NewChip builds a chip with the given geometry and cell type, fully erased.
func NewChip(geo Geometry, cell CellType, opts ...Option) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		timing: TypicalTiming(cell),
		st: ChipState{
			Geometry:    geo,
			Cell:        cell,
			Blocks:      make([]BlockState, geo.Blocks),
			Pages:       make([]PageState, int64(geo.Blocks)*int64(geo.PagesPerBlock)),
			CachedBlock: make([]int, geo.Planes),
			CachedPage:  make([]int, geo.Planes),
		},
	}
	for p := 0; p < geo.Planes; p++ {
		c.st.CachedBlock[p] = -1
		c.st.CachedPage[p] = -1
	}
	for _, opt := range opts {
		opt(c)
	}
	c.transfer = time.Duration(geo.PageSize+geo.OOBSize) * c.timing.PerByte
	return c, nil
}

// Clone returns a deep copy of the chip: block and page state, wear
// counters, operation stats, page-register contents and (when payload
// storage is enabled) the stored data. The clone and the original evolve
// independently; driving both with the same operation sequence yields
// identical durations, errors and stats.
func (c *Chip) Clone() *Chip {
	g := *c
	g.st = c.st.clone()
	return &g
}

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.st.Geometry }

// StoresData reports whether the chip retains page payloads
// (WithDataStorage).
func (c *Chip) StoresData() bool { return c.storeData }

// Cell returns the chip's cell type.
func (c *Chip) Cell() CellType { return c.st.Cell }

// Timing returns the chip's operation timings.
func (c *Chip) Timing() Timing { return c.timing }

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats { return c.st.Stats }

// EraseCount returns the number of erase cycles block has endured.
func (c *Chip) EraseCount(block int) (int, error) {
	if block < 0 || block >= c.st.Geometry.Blocks {
		return 0, ErrOutOfRange
	}
	return c.st.Blocks[block].EraseCount, nil
}

// IsBad reports whether a block has been marked bad (worn out or via MarkBad).
func (c *Chip) IsBad(block int) bool {
	if block < 0 || block >= c.st.Geometry.Blocks {
		return true
	}
	return c.st.Blocks[block].Bad
}

// MarkBad marks a block bad, as a block manager does when it detects
// uncorrectable errors.
func (c *Chip) MarkBad(block int) error {
	if block < 0 || block >= c.st.Geometry.Blocks {
		return ErrOutOfRange
	}
	c.st.Blocks[block].Bad = true
	return nil
}

// PageStateAt returns the state of the page for inspection in tests.
func (c *Chip) PageStateAt(block, page int) (PageState, error) {
	if err := c.checkAddr(block, page); err != nil {
		return 0, err
	}
	return c.st.Pages[c.pageIndex(block, page)], nil
}

// NextProgramPage returns the next page index that may be programmed in the
// block under the sequential-programming constraint, or PagesPerBlock if the
// block is full.
func (c *Chip) NextProgramPage(block int) (int, error) {
	if block < 0 || block >= c.st.Geometry.Blocks {
		return 0, ErrOutOfRange
	}
	return c.st.Blocks[block].NextPage, nil
}

func (c *Chip) checkAddr(block, page int) error {
	if block < 0 || block >= c.st.Geometry.Blocks || page < 0 || page >= c.st.Geometry.PagesPerBlock {
		return ErrOutOfRange
	}
	return nil
}

func (c *Chip) pageIndex(block, page int) int64 {
	return int64(block)*int64(c.st.Geometry.PagesPerBlock) + int64(page)
}

// ReadPage reads one page into the plane's page register and transfers it to
// the controller, returning the operation's duration. Reading the page
// already held in the register skips the cell-array read (the page-cache
// effect Section 2.1 mentions).
func (c *Chip) ReadPage(block, page int) (time.Duration, error) {
	if err := c.checkAddr(block, page); err != nil {
		return 0, err
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	if c.st.Pages[c.pageIndex(block, page)] != PageProgrammed {
		return 0, ErrReadErased
	}
	c.st.Stats.Reads++
	plane := c.st.Geometry.Plane(block)
	var d time.Duration
	if c.st.CachedBlock[plane] != block || c.st.CachedPage[plane] != page {
		d += c.timing.ReadPage
		c.st.CachedBlock[plane] = block
		c.st.CachedPage[plane] = page
	}
	d += c.transfer
	return d, nil
}

// ReadData returns the payload of a page; requires WithDataStorage. The
// returned slice aliases the chip's internal buffer and is only valid until
// the page is reprogrammed (after an erase, programming overwrites the same
// buffer in place); callers that retain the payload must copy it.
func (c *Chip) ReadData(block, page int) ([]byte, error) {
	if !c.storeData {
		return nil, ErrDataDisabled
	}
	if err := c.checkAddr(block, page); err != nil {
		return nil, err
	}
	if c.st.Pages[c.pageIndex(block, page)] != PageProgrammed {
		return nil, ErrReadErased
	}
	return c.st.Data[c.pageIndex(block, page)], nil
}

// ProgramPage programs one page, enforcing that the page is erased and that
// pages within a block are programmed in order. payload may be nil; when the
// chip stores data, the payload (up to PageSize bytes) is retained.
func (c *Chip) ProgramPage(block, page int, payload []byte) (time.Duration, error) {
	if err := c.checkAddr(block, page); err != nil {
		return 0, err
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	if c.st.Pages[c.pageIndex(block, page)] != PageErased {
		return 0, ErrNotErased
	}
	if page != b.NextPage {
		return 0, ErrOutOfOrder
	}
	if len(payload) > c.st.Geometry.PageSize {
		return 0, ErrPayloadTooLong
	}
	c.st.Pages[c.pageIndex(block, page)] = PageProgrammed
	b.NextPage++
	c.st.Stats.Programs++
	if c.storeData {
		// Reuse the page's previous buffer (kept across erases) instead of
		// allocating a fresh one per program.
		idx := c.pageIndex(block, page)
		buf := c.st.Data[idx]
		if cap(buf) >= len(payload) {
			buf = buf[:len(payload)]
		} else {
			buf = make([]byte, len(payload))
		}
		copy(buf, payload)
		c.st.Data[idx] = buf
	}
	// Invalidate the register if it held a page of this plane.
	plane := c.st.Geometry.Plane(block)
	c.st.CachedBlock[plane], c.st.CachedPage[plane] = -1, -1
	d := c.transfer + c.timing.ProgramPage
	return d, nil
}

// EraseBlock erases a block, returning it to the all-erased state. When the
// erase budget for the cell type is exceeded the block is marked bad and
// ErrWornOut is returned.
func (c *Chip) EraseBlock(block int) (time.Duration, error) {
	if block < 0 || block >= c.st.Geometry.Blocks {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	b.EraseCount++
	c.st.Stats.Erases++
	if b.EraseCount > c.st.Cell.EraseLimit() {
		b.Bad = true
		return c.timing.EraseBlock, ErrWornOut
	}
	base := c.pageIndex(block, 0)
	clear(c.st.Pages[base : base+int64(c.st.Geometry.PagesPerBlock)]) // PageErased is the zero state
	b.NextPage = 0
	// Payload buffers are kept (the page state already marks them stale) so
	// the next program of the page can overwrite them in place.
	plane := c.st.Geometry.Plane(block)
	if c.st.CachedBlock[plane] == block {
		c.st.CachedBlock[plane], c.st.CachedPage[plane] = -1, -1
	}
	return c.timing.EraseBlock, nil
}
