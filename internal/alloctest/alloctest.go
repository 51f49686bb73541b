// Package alloctest counts the heap allocations of a warm function, for
// the zero-allocation and allocation-budget tests.
//
// testing.AllocsPerRun reports the integer mean over its runs, so up to
// runs-1 allocations read as 0. Count returns the totals instead, which
// lets a zero-allocation test require exactly 0.
package alloctest

import "runtime"

// Count calls f once to warm it, then runs times more with GOMAXPROCS set
// to 1, and returns the mallocs and bytes allocated over those runs calls.
func Count(runs int, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
