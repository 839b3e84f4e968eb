//go:build !race

package uvm

// raceEnabled reports whether the test binary runs under the race
// detector, which adds allocations that exact alloc pins cannot absorb.
const raceEnabled = false
