package flash

import (
	"reflect"
	"testing"
)

// TestRestoreRejectsInvalidState: a state read from outside must match the
// chip's shape, and every block cursor must be one the chip itself could
// have produced — page state is derived from NextPage, so an out-of-range
// cursor or a negative wear counter would corrupt it silently. A rejected
// state leaves the chip unchanged.
func TestRestoreRejectsInvalidState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*ChipState)
	}{
		{"geometry", func(s *ChipState) { s.Geometry.Blocks++ }},
		{"cell type", func(s *ChipState) { s.Cell = MLC }},
		{"block count", func(s *ChipState) { s.Blocks = s.Blocks[:len(s.Blocks)-1] }},
		{"register planes", func(s *ChipState) { s.CachedPage = s.CachedPage[:1] }},
		{"payloads on a timing-only chip", func(s *ChipState) { s.Data = map[int64][]byte{0: {1}} }},
		{"negative next page", func(s *ChipState) { s.Blocks[2].NextPage = -1 }},
		{"next page past the block", func(s *ChipState) { s.Blocks[2].NextPage = s.Geometry.PagesPerBlock + 1 }},
		{"negative erase count", func(s *ChipState) { s.Blocks[3].EraseCount = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cloneTestChip(t)
			if _, err := c.ProgramPage(2, 0, nil); err != nil {
				t.Fatal(err)
			}
			before := c.State()
			s := c.State()
			tc.mutate(&s)
			if err := c.Restore(s); err == nil {
				t.Fatal("invalid state restored")
			}
			if !reflect.DeepEqual(c.State(), before) {
				t.Fatal("rejected restore changed the chip")
			}
		})
	}
	// A full block is a valid cursor.
	c := cloneTestChip(t)
	s := c.State()
	s.Blocks[1].NextPage = s.Geometry.PagesPerBlock
	if err := c.Restore(s); err != nil {
		t.Fatalf("full block rejected: %v", err)
	}
	if st, _ := c.PageStateAt(1, s.Geometry.PagesPerBlock-1); st != PageProgrammed {
		t.Fatal("restored full block reads as erased")
	}
}
