package ftl

import (
	"fmt"
	"slices"

	"uflip/internal/flash"
)

// TranslatorState is the state tree of a translation stack, the form the
// persistent state store encodes: exactly one of Page, Block and Cache is
// set, matching the stack's top layer. Chips holds the flash under a page or
// block FTL, Inner the stack under a write cache. Restoring validates every
// layer against a freshly constructed stack of the same configuration;
// structural mismatches are errors, never silent truncation.
type TranslatorState struct {
	Page  *PageFTLState
	Block *BlockFTLState
	Cache *CacheState
	Chips []flash.ChipState
	Inner *TranslatorState
}

// SnapshotTranslator returns a deep copy of the state of any of the three
// translation layers and everything under it.
func SnapshotTranslator(t Translator) (*TranslatorState, error) {
	switch f := t.(type) {
	case *PageFTL:
		s := f.st.clone()
		return &TranslatorState{Page: &s, Chips: f.arr.state()}, nil
	case *BlockFTL:
		s := f.st.clone()
		return &TranslatorState{Block: &s, Chips: f.arr.state()}, nil
	case *WriteCache:
		inner, err := SnapshotTranslator(f.inner)
		if err != nil {
			return nil, err
		}
		s := f.st.clone()
		s.StreamLRU = copyRegions(f.streamLRU.all())
		s.ZoneLRU = copyRegions(f.zoneLRU.all())
		return &TranslatorState{Cache: &s, Inner: inner}, nil
	default:
		return nil, fmt.Errorf("ftl: translator %T cannot be snapshotted", t)
	}
}

// RestoreTranslator makes s the state of a freshly constructed stack of the
// same shape, which takes ownership of it.
func RestoreTranslator(t Translator, s *TranslatorState) error {
	if s == nil {
		return fmt.Errorf("ftl: nil translator state")
	}
	switch f := t.(type) {
	case *PageFTL:
		return f.restore(s)
	case *BlockFTL:
		return f.restore(s)
	case *WriteCache:
		return f.restore(s)
	default:
		return fmt.Errorf("ftl: translator %T cannot be restored", t)
	}
}

// state returns a deep copy of every chip's state.
func (a *Array) state() []flash.ChipState {
	chips := make([]flash.ChipState, len(a.chips))
	for i, c := range a.chips {
		chips[i] = c.State()
	}
	return chips
}

// restore hands every chip its state.
func (a *Array) restore(chips []flash.ChipState) error {
	if len(chips) != len(a.chips) {
		return fmt.Errorf("ftl: state has %d chips, array %d", len(chips), len(a.chips))
	}
	for i, cs := range chips {
		if err := a.chips[i].Restore(cs); err != nil {
			return fmt.Errorf("ftl: chip %d: %w", i, err)
		}
	}
	return nil
}

func (f *PageFTL) restore(t *TranslatorState) error {
	s := t.Page
	switch {
	case s == nil:
		return fmt.Errorf("ftl: state is not a page FTL")
	case len(s.FMap) != len(f.st.FMap):
		return fmt.Errorf("ftl: state fmap has %d units, FTL %d", len(s.FMap), len(f.st.FMap))
	case len(s.RMap) != len(f.st.RMap):
		return fmt.Errorf("ftl: state rmap has %d slots, FTL %d", len(s.RMap), len(f.st.RMap))
	case len(s.Live) != len(f.st.Live) || len(s.VGen) != len(f.st.VGen) || len(s.IsOpen) != len(f.st.IsOpen):
		return fmt.Errorf("ftl: state block-state lengths do not match the array")
	case len(s.WPs) != len(f.st.WPs):
		return fmt.Errorf("ftl: state has %d write points, FTL %d", len(s.WPs), len(f.st.WPs))
	}
	if err := f.book.restore(s.Book); err != nil {
		return err
	}
	if err := f.arr.restore(t.Chips); err != nil {
		return err
	}
	f.st = *s
	f.pending = nil
	return nil
}

func (f *BlockFTL) restore(t *TranslatorState) error {
	s := t.Block
	switch {
	case s == nil:
		return fmt.Errorf("ftl: state is not a block FTL")
	case len(s.Data) != len(f.st.Data):
		return fmt.Errorf("ftl: state maps %d logical blocks, FTL %d", len(s.Data), len(f.st.Data))
	case len(s.Logs) != f.cfg.LogBlocks:
		return fmt.Errorf("ftl: state has %d log slots, FTL %d", len(s.Logs), f.cfg.LogBlocks)
	}
	if err := f.book.restore(s.Book); err != nil {
		return err
	}
	if err := f.arr.restore(t.Chips); err != nil {
		return err
	}
	f.st = *s
	f.pending = nil
	return nil
}

func (c *WriteCache) restore(t *TranslatorState) error {
	s := t.Cache
	switch {
	case s == nil:
		return fmt.Errorf("ftl: state is not a write cache")
	// gob decodes an empty map as nil, so a nil LineData is valid for a
	// data-mode cache (no buffered lines); only payloads a non-data cache
	// cannot hold are a mismatch.
	case len(s.LineData) > 0 && !c.dataMode:
		return fmt.Errorf("ftl: state carries line data but the cache does not store payloads")
	}
	if err := RestoreTranslator(c.inner, t.Inner); err != nil {
		return err
	}
	clear(c.regions)
	c.streamLRU, c.zoneLRU = regionList{}, regionList{}
	c.freeRegions = nil
	lines, err := c.rebuild(slices.Values(s.StreamLRU), slices.Values(s.ZoneLRU), len(s.StreamLRU)+len(s.ZoneLRU))
	if err != nil {
		return err
	}
	if lines != s.TotalLines {
		return fmt.Errorf("ftl: state claims %d dirty lines, regions hold %d", s.TotalLines, lines)
	}
	c.st = *s
	c.st.StreamLRU, c.st.ZoneLRU = nil, nil
	switch {
	case !c.dataMode:
		c.st.LineData = nil
	case c.st.LineData == nil:
		c.st.LineData = make(map[int64][]byte)
	}
	return nil
}
