package flash

import "fmt"

// State returns a deep copy of the chip's complete mutable state.
func (c *Chip) State() ChipState { return c.st.clone() }

// Restore adopts s as the chip's state; the chip takes ownership of s. The
// chip must have been constructed with the state's geometry, cell type and
// data-storage setting (i.e. from the same profile); any mismatch is an
// error and leaves the chip unchanged.
func (c *Chip) Restore(s ChipState) error {
	geo := c.st.Geometry
	switch {
	case s.Geometry != geo:
		return fmt.Errorf("flash: state geometry %+v does not match chip %+v", s.Geometry, geo)
	case s.Cell != c.st.Cell:
		return fmt.Errorf("flash: state cell type %v does not match chip %v", s.Cell, c.st.Cell)
	case len(s.Blocks) != len(c.st.Blocks):
		return fmt.Errorf("flash: state has %d blocks, chip %d", len(s.Blocks), len(c.st.Blocks))
	case len(s.Pages) != len(c.st.Pages):
		return fmt.Errorf("flash: state has %d pages, chip %d", len(s.Pages), len(c.st.Pages))
	case len(s.CachedBlock) != geo.Planes || len(s.CachedPage) != geo.Planes:
		return fmt.Errorf("flash: state register contents do not match %d planes", geo.Planes)
	// gob decodes an empty map as nil, so a nil Data is valid for a
	// data-storing chip with no payloads yet; only payloads a non-storing
	// chip cannot hold are a mismatch.
	case len(s.Data) > 0 && !c.storeData:
		return fmt.Errorf("flash: state carries payloads but the chip does not store data")
	}
	switch {
	case !c.storeData:
		s.Data = nil
	case s.Data == nil:
		s.Data = make(map[int64][]byte)
	}
	c.st = s
	return nil
}
