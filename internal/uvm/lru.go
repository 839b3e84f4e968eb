package uvm

import "math"

// The eviction path used to select victims with a full scan over every
// chunk of every region — O(chunks) per evicted chunk, O(chunks²) for an
// oversubscribed pass. The manager keeps constant-time residency
// bookkeeping instead:
//
//   - a global LRU ring threaded through every resident chunk, ordered
//     by last-use stamp (the stamp clock is monotone and every residency
//     transition is accompanied by a touch, so append-at-MRU keeps the
//     ring sorted). Victim selection pops the ring's head; touch unlinks
//     and re-appends at the tail.
//   - a per-region resident list through the same nodes, so Unregister
//     releases a region in O(resident chunks) instead of O(chunks).
//   - per-region resident counters (count and bytes), making
//     ResidentChunks and aggregate capacity checks O(1).
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

// chunkNode is the intrusive list node of one migration granule, living
// in the Manager's flat arena at slot region.base+idx. A chunk is linked
// into the global ring and its region's resident list exactly while it
// is device-resident.
//
// Link encoding: slots are arena indices; slot 0 is the global LRU
// sentinel. prev/next use 0 for the sentinel and -1 for "not linked";
// rprev/rnext use -1 for the list ends.
type chunkNode struct {
	prev, next   int32 // global LRU ring, oldest stamp first
	rprev, rnext int32 // region resident list, arbitrary order
	region       int32 // owning region's slot in Manager.regs
	idx          int32 // chunk index within the region
}

// initLRU creates the node arena with the empty global-ring sentinel at
// slot 0.
func (m *Manager) initLRU() {
	m.nodes = append(m.nodes[:0], chunkNode{region: -1, idx: -1, rprev: -1, rnext: -1})
}

// newNodeRange appends n arena slots permanently owned by region r
// (slots [r.base, r.base+n)), all unlinked.
func (m *Manager) newNodeRange(r *Region, n int) {
	for i := 0; i < n; i++ {
		m.nodes = append(m.nodes, chunkNode{
			prev: -1, next: -1, rprev: -1, rnext: -1,
			region: r.slot, idx: int32(i),
		})
	}
}

// hold makes chunk idx device-resident with the given availability time:
// it links the chunk at the MRU end of the global ring, onto the region
// list, and updates the resident counters. The caller has touched (or is
// about to touch) the chunk, so MRU placement matches its stamp.
func (m *Manager) hold(r *Region, idx int, arrival float64, size int64) {
	r.arrival[idx] = arrival
	s := r.base + int32(idx)
	n := &m.nodes[s]
	tail := m.nodes[0].prev
	n.prev, n.next = tail, 0
	m.nodes[tail].next = s
	m.nodes[0].prev = s
	n.rprev, n.rnext = -1, r.resHead
	if r.resHead >= 0 {
		m.nodes[r.resHead].rprev = s
	}
	r.resHead = s
	r.residentCount++
	r.residentBytes += size
	m.resident += size
}

// release drops chunk idx's residency: unlink from the ring and the
// region list, clear the arrival, and update the counters.
func (m *Manager) release(r *Region, idx int, size int64) {
	r.arrival[idx] = math.Inf(1)
	s := r.base + int32(idx)
	n := &m.nodes[s]
	m.nodes[n.prev].next = n.next
	m.nodes[n.next].prev = n.prev
	n.prev, n.next = -1, -1
	if n.rprev >= 0 {
		m.nodes[n.rprev].rnext = n.rnext
	} else {
		r.resHead = n.rnext
	}
	if n.rnext >= 0 {
		m.nodes[n.rnext].rprev = n.rprev
	}
	n.rprev, n.rnext = -1, -1
	r.residentCount--
	r.residentBytes -= size
	m.resident -= size
}

// touch stamps chunk idx as recently used and, if it is resident, moves
// it to the MRU end of the global ring. next > 0 means "linked and not
// already the MRU tail" (0 is the sentinel, -1 is unlinked).
func (m *Manager) touch(r *Region, idx int) {
	m.stamp++
	r.lastUse[idx] = m.stamp
	s := r.base + int32(idx)
	if n := &m.nodes[s]; n.next > 0 {
		m.nodes[n.prev].next = n.next
		m.nodes[n.next].prev = n.prev
		tail := m.nodes[0].prev
		n.prev, n.next = tail, 0
		m.nodes[tail].next = s
		m.nodes[0].prev = s
	}
}

// victim returns the least-recently-used resident chunk, or (nil, -1)
// when nothing is resident. O(1) on the LRU ring.
func (m *Manager) victim() (*Region, int) {
	if s := m.nodes[0].next; s != 0 {
		n := &m.nodes[s]
		return m.regs[n.region], int(n.idx)
	}
	return nil, -1
}
