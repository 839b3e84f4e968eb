package uvm

import (
	"cmp"
	"math"
	"slices"
)

// The eviction path used to select victims with a full scan over every
// chunk of every region — O(chunks) per evicted chunk, O(chunks²) for an
// oversubscribed pass. The manager keeps constant-time bookkeeping
// instead, and pays for the eviction index only in the lives that evict:
//
//   - every chunk carries a last-use stamp from a monotone clock; the
//     stamp is the one source of LRU truth.
//   - a global LRU ring threaded through every resident chunk, ordered
//     by stamp, is built lazily. While the manager has never evicted,
//     no chunk is linked: touch only bumps the stamp, and hold only
//     sets the arrival and the counters. The first makeRoom that
//     must evict collects every resident chunk's (stamp, slot) pair,
//     sorts by stamp (stamps are unique, so the order is independent of
//     region order) and links the ring in that order. From then on until
//     Reset the ring is maintained eagerly: touch unlinks and re-appends
//     at the MRU tail, hold appends, release unlinks, and victim
//     selection pops the head.
//     Every residency transition is accompanied by a touch, so
//     append-at-MRU keeps the ring sorted.
//   - per-region resident counters (count and bytes), making
//     ResidentChunks and aggregate capacity checks O(1). Unregister
//     clears a region's arrivals with one sequential scan and unlinks
//     chunks only when the ring exists.
//
// Almost no manager life ever evicts (the oversubscription sweep is the
// exception), so the ring's upkeep — a relink per touch, a link per hold
// and an unlink per released chunk — is skipped where it was pure waste.
//
// The links are int32 slot indices into one flat node arena owned by the
// Manager, not pointers: a simulated iteration relinks chunks millions
// of times, and pointer links made every relink a write-barrier hit and
// every node a GC scan target (the ~45% GC share of the pre-arena
// figure-suite profile). Index links touch no pointers, so the hot loop
// runs barrier-free and the arena is skipped by the garbage collector's
// scan entirely.
//
// The reference scan selector lives in the differential test, which
// checks every victim the ring yields against it.

// chunkNode is the intrusive ring node of one migration granule, living
// in the Manager's flat arena at slot region.base+idx. Once the ring is
// built, a chunk is linked into it exactly while it is device-resident;
// before that, no node is linked.
//
// Link encoding: slots are arena indices; slot 0 is the global LRU
// sentinel. prev/next use 0 for the sentinel and -1 for "not linked".
type chunkNode struct {
	prev, next int32 // global LRU ring, oldest stamp first
	region     int32 // owning region's slot in Manager.regs
	idx        int32 // chunk index within the region
}

// ringKey is one resident chunk's entry in the ring build's sort.
type ringKey struct {
	stamp int64
	slot  int32
}

// initLRU creates the node arena with the empty global-ring sentinel at
// slot 0.
func (m *Manager) initLRU() {
	m.nodes = append(m.nodes[:0], chunkNode{region: -1, idx: -1})
}

// newNodeRange appends n arena slots permanently owned by region r
// (slots [r.base, r.base+n)), all unlinked.
func (m *Manager) newNodeRange(r *Region, n int) {
	for i := 0; i < n; i++ {
		m.nodes = append(m.nodes, chunkNode{prev: -1, next: -1, region: r.slot, idx: int32(i)})
	}
}

// buildRing switches the manager to ring mode: it links every resident
// chunk into the global ring in ascending stamp order. Free regions hold
// no resident chunks, so walking every region ever created finds exactly
// the live residents. The sort scratch is sized once to the resident
// count and kept for the next build.
func (m *Manager) buildRing() {
	n := 0
	for _, r := range m.regs {
		n += r.residentCount
	}
	if cap(m.ringKeys) < n {
		m.ringKeys = make([]ringKey, 0, n)
	}
	keys := m.ringKeys[:0]
	for _, r := range m.regs {
		if r.residentCount == 0 {
			continue
		}
		for i, a := range r.arrival {
			if !math.IsInf(a, 1) {
				keys = append(keys, ringKey{r.lastUse[i], r.base + int32(i)})
			}
		}
	}
	slices.SortFunc(keys, func(a, b ringKey) int { return cmp.Compare(a.stamp, b.stamp) })
	prev := int32(0)
	for _, k := range keys {
		m.nodes[prev].next = k.slot
		m.nodes[k.slot].prev = prev
		prev = k.slot
	}
	m.nodes[prev].next = 0
	m.nodes[0].prev = prev
	m.ringed = true
}

// linkTail appends slot s at the MRU end of the ring.
func (m *Manager) linkTail(s int32) {
	tail := m.nodes[0].prev
	m.nodes[s].prev, m.nodes[s].next = tail, 0
	m.nodes[tail].next = s
	m.nodes[0].prev = s
}

// unlink removes slot s from the ring.
func (m *Manager) unlink(s int32) {
	n := &m.nodes[s]
	m.nodes[n.prev].next = n.next
	m.nodes[n.next].prev = n.prev
	n.prev, n.next = -1, -1
}

// hold makes chunk idx device-resident with the given availability time
// and updates the resident counters; in ring mode it also links the
// chunk at the MRU end. The caller has touched (or is about to touch)
// the chunk, so MRU placement matches its stamp.
func (m *Manager) hold(r *Region, idx int, arrival float64, size int64) {
	r.arrival[idx] = arrival
	if m.ringed {
		m.linkTail(r.base + int32(idx))
	}
	r.residentCount++
	r.residentBytes += size
	m.resident += size
}

// release drops chunk idx's residency: unlink it from the ring, clear
// the arrival, and update the counters. Only the evictor releases single
// chunks, and it runs in ring mode.
func (m *Manager) release(r *Region, idx int, size int64) {
	r.arrival[idx] = math.Inf(1)
	m.unlink(r.base + int32(idx))
	r.residentCount--
	r.residentBytes -= size
	m.resident -= size
}

// touch stamps chunk idx as recently used and, in ring mode, moves it to
// the MRU end of the ring if it is linked. next > 0 means "linked and
// not already the MRU tail" (0 is the sentinel, -1 is unlinked).
//
// Stamps decide the ring's order when it is built, so which operations
// touch is part of the eviction contract: a demand access touches every
// chunk it covers, resident or not; PrefetchRegion and MarkDeviceWritten
// touch only the chunks they make resident. A redundant prefetch or
// device write of an already-resident chunk does not refresh its LRU
// position, and neither do MarkDirty and the writeback paths.
func (m *Manager) touch(r *Region, idx int) {
	m.stamp++
	r.lastUse[idx] = m.stamp
	if m.ringed {
		m.toTail(r.base + int32(idx))
	}
}

// toTail moves linked slot s to the MRU end of the ring. It is kept out
// of line so touch, the demand loop's per-chunk call, inlines.
//
//go:noinline
func (m *Manager) toTail(s int32) {
	if n := &m.nodes[s]; n.next > 0 {
		m.nodes[n.prev].next = n.next
		m.nodes[n.next].prev = n.prev
		m.linkTail(s)
	}
}

// victim returns the least-recently-used resident chunk, or (nil, -1)
// when nothing is resident. O(1) on the LRU ring, which it builds on the
// manager's first eviction.
func (m *Manager) victim() (*Region, int) {
	if !m.ringed {
		m.buildRing()
	}
	if s := m.nodes[0].next; s != 0 {
		n := &m.nodes[s]
		return m.regs[n.region], int(n.idx)
	}
	return nil, -1
}
