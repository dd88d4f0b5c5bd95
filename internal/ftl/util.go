package ftl

import "fmt"

// ordered is the constraint of the FTL's min-heaps: each element knows how to
// compare itself to another of its kind.
type ordered[T any] interface{ before(T) bool }

// minHeap is a binary min-heap specialised per element type, replacing
// container/heap: Push and Pop move concrete values instead of boxing every
// element through interface{}, so the steady-state allocation-and-GC path of
// the FTLs allocates nothing (the backing slice only grows until the working
// set's high-water mark). The heap is its backing array, so an FTL state
// stores and restores it verbatim and pops in exactly the original order.
type minHeap[T ordered[T]] []T

// Len returns the number of elements.
func (h *minHeap[T]) Len() int { return len(*h) }

// Push adds x, restoring the heap invariant.
//
//uflint:hotpath
func (h *minHeap[T]) Push(x T) {
	*h = append(*h, x)
	items := *h
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !items[i].before(items[parent]) {
			break
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

// Pop removes and returns the minimum element; it must not be called on an
// empty heap.
//
//uflint:hotpath
func (h *minHeap[T]) Pop() T {
	items := *h
	n := len(items) - 1
	items[0], items[n] = items[n], items[0]
	x := items[n]
	var zero T
	items[n] = zero
	*h = items[:n]
	// Sift the promoted element down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && items[r].before(items[l]) {
			m = r
		}
		if !items[m].before(items[i]) {
			break
		}
		items[i], items[m] = items[m], items[i]
		i = m
	}
	return x
}

// FreeBlock is an entry in the pre-erased pool, ordered by erase count so
// allocation doubles as dynamic wear leveling (the least-worn free block is
// always handed out first).
type FreeBlock struct {
	Block      int
	EraseCount int
}

func (a FreeBlock) before(b FreeBlock) bool {
	if a.EraseCount != b.EraseCount {
		return a.EraseCount < b.EraseCount
	}
	return a.Block < b.Block
}

// VictimBlock is a garbage-collection candidate, ordered by live unit count
// (greedy policy) with erase count as tie-break (wear-aware victim choice).
// The heap is lazy: counts may be stale and are re-validated on pop, and a
// generation number guards against ghost entries from a block's previous
// life (a block can be closed, collected, erased, reallocated and closed
// again while an old entry still sits in the heap).
type VictimBlock struct {
	Block      int
	Live       int
	EraseCount int
	Gen        int32
}

func (a VictimBlock) before(b VictimBlock) bool {
	if a.Live != b.Live {
		return a.Live < b.Live
	}
	if a.EraseCount != b.EraseCount {
		return a.EraseCount < b.EraseCount
	}
	return a.Block < b.Block
}

// MapBookState is the mutable state of the on-flash direct map of Section
// 2.2: each map page covers a run of consecutive mapping entries; dirty map
// pages are buffered in controller RAM up to a limit, then flushed to flash.
// Scattered writes touch many distinct map pages and therefore flush often,
// while focused writes amortize their bookkeeping — the mechanism behind the
// extra cost of large-increment ordered patterns.
//
// The FIFO of dirty pages lives in a fixed ring (at most limit+1 pages are
// ever dirty), so steady-state touches never allocate.
type MapBookState struct {
	Order        []int64 // ring buffer of dirty map pages, FIFO
	Head, Queued int
	LastFlushed  int64
}

// cloneInto overwrites dst with a deep copy of s, reusing dst's ring.
func (s *MapBookState) cloneInto(dst *MapBookState) {
	order := dst.Order
	*dst = *s
	dst.Order = append(order[:0], s.Order...)
}

// mapBook is the configuration and derived index of a MapBookState: the set
// of dirty pages, which is exactly the queued window of the ring.
type mapBook struct {
	unitsPerPage int64              //uflint:shared — derived from the geometry
	limit        int                //uflint:shared — immutable config
	dirty        map[int64]struct{} // the ring's queued window, as a set
}

func newMapBook(unitsPerPage int64, limit int) (mapBook, MapBookState) {
	if unitsPerPage < 1 {
		unitsPerPage = 1
	}
	if limit < 1 {
		limit = 1
	}
	b := mapBook{
		unitsPerPage: unitsPerPage,
		limit:        limit,
		dirty:        make(map[int64]struct{}, limit+1),
	}
	return b, MapBookState{Order: make([]int64, limit+1), LastFlushed: -2}
}

// touch records in s that the map entry for unit changed, charging a flush
// to ops when the dirty budget is exceeded. Flushing map pages in address
// order is itself a sequential write and stays cheap (one page program); it
// is the scattered map-page flushes — random or strided data writes hopping
// between map pages — that pay the full bookkeeping-block cycle.
//
//uflint:hotpath
func (b *mapBook) touch(s *MapBookState, unit int64, ops *Ops) {
	page := unit / b.unitsPerPage
	if _, ok := b.dirty[page]; ok {
		return
	}
	b.dirty[page] = struct{}{}
	s.Order[(s.Head+s.Queued)%len(s.Order)] = page
	s.Queued++
	if len(b.dirty) > b.limit {
		victim := s.Order[s.Head]
		s.Head = (s.Head + 1) % len(s.Order)
		s.Queued--
		delete(b.dirty, victim)
		if victim == s.LastFlushed+1 || victim == s.LastFlushed {
			ops.SeqMapFlushes++
		} else {
			ops.MapFlushes++
		}
		s.LastFlushed = victim
	}
}

// dirtyCount reports the number of buffered dirty map pages (for tests).
func (b *mapBook) dirtyCount() int { return len(b.dirty) }

// cloneInto overwrites dst with an independent copy of b, reusing dst's
// dirty set.
func (b *mapBook) cloneInto(dst *mapBook) {
	dirty := dst.dirty
	*dst = *b
	if dirty == nil {
		dirty = make(map[int64]struct{}, b.limit+1)
	}
	clear(dirty)
	for k := range b.dirty {
		dirty[k] = struct{}{}
	}
	dst.dirty = dirty
}

// restore validates a ring read from outside against the book's limit and
// rebuilds the dirty set from its queued window.
func (b *mapBook) restore(s MapBookState) error {
	switch {
	case len(s.Order) != b.limit+1:
		return fmt.Errorf("ftl: map book ring size %d does not match %d", len(s.Order), b.limit+1)
	case s.Queued < 0 || s.Queued > len(s.Order):
		return fmt.Errorf("ftl: map book queues %d pages in a ring of %d", s.Queued, len(s.Order))
	case s.Head < 0 || s.Head >= len(s.Order):
		return fmt.Errorf("ftl: map book head %d out of range", s.Head)
	}
	dirty := make(map[int64]struct{}, b.limit+1)
	for i := 0; i < s.Queued; i++ {
		dirty[s.Order[(s.Head+i)%len(s.Order)]] = struct{}{}
	}
	if len(dirty) != s.Queued {
		return fmt.Errorf("ftl: map book state inconsistent (%d dirty, %d queued)", len(dirty), s.Queued)
	}
	b.dirty = dirty
	return nil
}
