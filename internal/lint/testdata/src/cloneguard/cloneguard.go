// Package cloneguard is the golden fixture of the cloneguard analyzer:
// the added-but-not-cloned field class it exists to catch, the two
// annotation escape hatches, the whole-struct-copy exemption for value
// fields, the reference fields that exemption does not cover, and a
// recycling cloneInto that leaves a destination field stale.
package cloneguard

// tracker has a Clone that forgets a field: the exact bug class the
// analyzer pins at declaration time.
type tracker struct {
	ops    int64
	missed []int // want `field missed is not referenced in \(\*tracker\)\.Clone`
	seed   int64 //uflint:shared — immutable config, deliberately aliased
	buf    []int //uflint:scratch — dead between calls
}

// Clone copies ops but forgets missed.
func (t *tracker) Clone() *tracker {
	return &tracker{ops: t.ops}
}

// book snapshots with a whole-struct copy, which references every field
// at once; only the map needs (and gets) a deep fix-up.
type book struct {
	pages map[int]string
	dirty bool
}

// Snapshot deep-copies via *b.
func (b *book) Snapshot() *book {
	g := *b
	pages := make(map[int]string, len(g.pages))
	for k, v := range g.pages {
		pages[k] = v
	}
	g.pages = pages
	return &g
}

// gauge has a Restore that forgets the high-water mark.
type gauge struct {
	level int
	high  int // want `field high is not referenced in \(\*gauge\)\.Restore`
}

// Restore rewinds level but not high.
func (g *gauge) Restore(level int) {
	g.level = level
}

// ledger clones through a whole-struct copy and deep-copies its map, but
// the copy alone would share the slice and the slice inside meta between
// the clone and the original: the class a field added later to a state
// struct falls into.
type ledger struct {
	seq     int64
	totals  [4]int64 // values only: the copy covers it
	label   string
	entries map[int]string
	pending []int      // want `field pending shares memory through the whole-struct copy in \(\*ledger\)\.Clone`
	meta    ledgerMeta // want `field meta shares memory through the whole-struct copy in \(\*ledger\)\.Clone`
	parent  *ledger    //uflint:shared — the ledger this one was split from
}

type ledgerMeta struct {
	tags []string
}

// Clone deep-copies entries but forgets pending and meta.
func (l *ledger) Clone() *ledger {
	g := *l
	g.entries = make(map[int]string, len(l.entries))
	for k, v := range l.entries {
		g.entries[k] = v
	}
	return &g
}

// recycler clones into a destination that may be a recycled copy. Its
// cloneInto reuses dst's buffer for stale but never reads r.stale, so a
// recycled destination would keep the previous state's value: the leak
// the receiver-read rule for cloneInto exists to catch.
type recycler struct {
	ops   int64
	hist  []int
	stale []int // want `field stale is not read from the receiver in \(\*recycler\)\.cloneInto`
}

// Clone delegates, so it is checked through cloneInto, not field by field.
func (r *recycler) Clone() *recycler { return r.cloneInto(nil) }

// cloneInto copies ops and hist but only truncates dst's stale.
func (r *recycler) cloneInto(dst *recycler) *recycler {
	if dst == nil {
		dst = new(recycler)
	}
	dst.ops = r.ops
	dst.hist = append(dst.hist[:0], r.hist...)
	dst.stale = dst.stale[:0]
	return dst
}
