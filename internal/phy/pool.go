package phy

import "sync"

// The PHY recycles its large per-frame scratch slices — most importantly
// the RX sample stream a TransmitPCG produces — through sync.Pools. One
// 0.25 s simulated point moves ~500k samples through the pipeline, and
// without pooling every frame allocates fresh megabyte-class slices that
// the GC must then chase.
//
// A sync.Pool stores interface values, and putting a raw []int in one
// boxes the three-word slice header on every Put — one small heap
// allocation per recycled buffer, which is exactly what the zero-alloc
// steady state must not pay. The pools therefore store *[]int: storing a
// pointer in an interface is allocation-free, and the spare pointer
// cells themselves ride a second pool so the Get/Put cycle reuses them
// too.

var samplePool sync.Pool // *[]int holding a recycled buffer
var cellPool sync.Pool   // *[]int spare cells with no buffer attached

// newSampleBuf returns a zero-length sample buffer with at least the given
// capacity, reusing a recycled one when available.
func newSampleBuf(capacity int) []int {
	if v := samplePool.Get(); v != nil {
		p := v.(*[]int)
		buf := *p
		*p = nil
		cellPool.Put(p)
		if cap(buf) >= capacity {
			return buf[:0]
		}
	}
	return make([]int, 0, capacity)
}

// RecycleSamples returns a sample stream obtained from Link.TransmitPCG to
// the PHY's buffer pool. Callers that are done with the samples (after
// Receiver.Process) should recycle them so steady-state simulation stops
// allocating; passing a slice not obtained from TransmitPCG is also fine.
// The caller must not touch the slice afterwards.
func RecycleSamples(samples []int) {
	if cap(samples) == 0 {
		return
	}
	p, _ := cellPool.Get().(*[]int)
	if p == nil {
		p = new([]int)
	}
	*p = samples[:0]
	samplePool.Put(p)
}
