package uvm

import "sort"

// Dirty bookkeeping: r.dirty remains the per-chunk truth, and the region
// additionally keeps an ascending queue of dirty chunk indices so the
// writeback paths iterate only dirty chunks instead of scanning the whole
// region. Eviction clears a chunk's dirty bit in O(1) and leaves its
// queue entry behind as a stale tombstone (r.queued tracks queue
// membership, so an index appears at most once); the writeback iteration
// drops tombstones as it passes them. Queue length is therefore bounded
// by the chunk count.

// markDirtyRange marks chunks [first, last] dirty and splices the range
// into the dirty queue. Because chunk indices in a contiguous range
// occupy one contiguous span of the ascending queue, the splice is a
// single copy regardless of how many of them were already queued.
//
// A region whose every chunk is dirty and queued (queue entries are
// unique, so a full-length queue holds each index once) has nothing to
// change; that state — a kernel rewriting its whole output every launch
// — returns before walking the range.
func (r *Region) markDirtyRange(first, last int) {
	if r.dirtyCount == len(r.dirty) && len(r.dirtyQ) == len(r.dirty) {
		return
	}
	for i := first; i <= last; i++ {
		if !r.dirty[i] {
			r.dirty[i] = true
			r.dirtyCount++
		}
	}
	lo := sort.Search(len(r.dirtyQ), func(k int) bool { return r.dirtyQ[k] >= int32(first) })
	hi := sort.Search(len(r.dirtyQ), func(k int) bool { return r.dirtyQ[k] > int32(last) })
	want := last - first + 1
	if hi-lo == want {
		return // the whole range is already queued
	}
	grow := want - (hi - lo)
	n := len(r.dirtyQ)
	if n+grow > cap(r.dirtyQ) {
		// Queue length is bounded by the chunk count, so after warm-up the
		// retained capacity makes this branch (the only allocation) dead.
		tmp := make([]int32, n, n+grow+n)
		copy(tmp, r.dirtyQ)
		r.dirtyQ = tmp
	}
	r.dirtyQ = r.dirtyQ[:n+grow]
	copy(r.dirtyQ[lo+want:], r.dirtyQ[hi:n])
	for i := 0; i < want; i++ {
		idx := int32(first + i)
		r.dirtyQ[lo+i] = idx
		r.queued[idx] = true
	}
}

// clearDirtyOnEvict drops chunk idx's dirty bit without touching the
// queue (the entry becomes a tombstone).
func (r *Region) clearDirtyOnEvict(idx int) {
	if r.dirty[idx] {
		r.dirty[idx] = false
		r.dirtyCount--
	}
}
