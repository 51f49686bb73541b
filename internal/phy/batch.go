// Columnar batch scratch of the PHY hot loop (DESIGN.md §12).
//
// Both directions work on columns of reusable scratch rather than one
// sample at a time:
//
//   - TransmitPCG walks the waveform's slot runs once and fills the
//     pooled sample column in place: one Sampler.SampleNPCG block fill
//     per settled run (clamped only when the rail's draws can pass the
//     ADC's code), and one draw per window that touches a slot
//     transition.
//   - Process derives a prefix-sum column and the three-sample window
//     column from it, then decodes frames into per-receiver reusable
//     payload buffers.
//
// All columns live in pooled or receiver-owned scratch so the steady
// state allocates nothing.
package phy

import "smartvlc/internal/frame"

// Batch is the receiver-owned columnar scratch of Process: the sample
// prefix-sum column, the three-sample window column derived from it, the
// reusable results and events slices and the per-frame payload buffers
// the decoded bodies land in. It belongs to exactly one Receiver and is recycled on
// every Process call — which is why Process results (and their payloads)
// are only valid until the receiver's next Process call.
type Batch struct {
	// win3[i] = samples[i+1]+samples[i+2]+samples[i+3], i.e. the prefix-
	// sum difference pre[i+4]−pre[i+1] computed as one fused rolling pass.
	win3 []int
	// results is the slice Process returns, reused across calls.
	results []frame.Result
	// events holds one Event per preamble lock of the last Process call.
	events []Event
	// payloads holds one reusable backing buffer per decoded frame slot;
	// payloads[k] backs results[k].Payload.
	payloads [][]byte
}

// grownInts returns buf resized to length n, reallocating only when the
// capacity is short.
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
