package mac

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// SeqBytes is the per-frame MAC overhead: a 2-byte sequence number
// prepended to the application payload.
const SeqBytes = 2

// seqWords sizes the per-seq bitmaps: one bit per point of the 16-bit
// sequence space, 1024 words of 64 bits = 8 KB. Bitmaps replace the
// seq-keyed maps the ARQ state used to grow without bound — a long-lived
// session now holds a fixed 8 KB per side instead of one map entry per
// frame ever sent.
const seqWords = 1 << 16 / 64

// seqBitmap is a fixed-size set over the 16-bit sequence space.
type seqBitmap [seqWords]uint64

func (m *seqBitmap) has(seq uint16) bool { return m[seq>>6]&(1<<(seq&63)) != 0 }
func (m *seqBitmap) set(seq uint16)      { m[seq>>6] |= 1 << (seq & 63) }
func (m *seqBitmap) clear(seq uint16)    { m[seq>>6] &^= 1 << (seq & 63) }

// payloadSeed keys the deterministic per-seq payload generator. Sender
// and Receiver must derive the body from the same stream so validation
// can regenerate it instead of carrying it.
const payloadSeed = 0x5eedf00d

// appendPayloadFor writes the deterministic frame body for a sequence
// number into dst[:0]: the 2-byte seq followed by pseudo-random
// application bytes. pcg is caller-owned scratch (reseeded here), which
// keeps the generation allocation-free; the draws are bit-identical to
// rand.New(rand.NewPCG(payloadSeed, seq)) because (*rand.Rand).Uint64
// delegates straight to its source.
func appendPayloadFor(dst []byte, pcg *rand.PCG, seq uint16, payloadBytes int) []byte {
	n := SeqBytes + payloadBytes
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	binary.BigEndian.PutUint16(dst, seq)
	pcg.Seed(payloadSeed, uint64(seq))
	for i := SeqBytes; i < n; i++ {
		dst[i] = byte(pcg.Uint64())
	}
	return dst
}

// flight is one unacknowledged frame: its sequence number, the last
// transmission time (drives the retransmit timeout) and the first (drives
// the end-to-end ACK latency). The sender keeps at most Window of these
// in a compact slice — the in-flight set IS the window, so a slice scan
// beats a map both in locality and in not allocating.
type flight struct {
	seq     uint16
	lastTx  float64
	firstTx float64
}

// Sender is a sliding-window ARQ transmitter. Frames carry a sequence
// number; unacknowledged frames are retransmitted after a timeout.
// Payload content is deterministic per sequence number, so a
// retransmission is bit-identical to the original.
//
// All bookkeeping is windowed over the 16-bit sequence space: the
// in-flight set is a ≤Window slice and the acked set an 8 KB bitmap, so
// steady-state memory is constant no matter how long the session runs.
// When the sequence counter wraps and a number is reissued, its acked
// bit is cleared first, so the new incarnation's payload counts toward
// goodput — the old map kept the stale entry and silently undercounted
// any session past 65536 frames.
type Sender struct {
	// Window is the maximum number of unacknowledged frames in flight.
	Window int
	// TimeoutSeconds triggers retransmission of an unacked frame.
	TimeoutSeconds float64
	// PayloadBytes is the application payload per frame (128 in the
	// paper's evaluation), excluding the sequence header.
	PayloadBytes int

	rng      *rand.Rand
	nextSeq  uint16
	inflight []flight // ≤ Window entries, insertion order
	last     Decision

	payloadBuf []byte
	payloadPCG rand.PCG

	// Stats.
	framesSent   int
	retransmits  int
	ackedPayload int64
	acked        seqBitmap
	uniqueAcked  int
}

// NewSender builds an ARQ sender.
func NewSender(window, payloadBytes int, timeout float64, rng *rand.Rand) (*Sender, error) {
	s := &Sender{}
	if err := s.Reset(window, payloadBytes, timeout, rng); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the sender to its just-constructed state for the given
// parameters, reusing the in-flight slice and payload scratch. A renting
// arena calls this instead of NewSender so warm sessions start with zero
// MAC allocations.
func (s *Sender) Reset(window, payloadBytes int, timeout float64, rng *rand.Rand) error {
	if window < 1 {
		return fmt.Errorf("mac: window %d < 1", window)
	}
	if payloadBytes < 1 || payloadBytes > 65000 {
		return fmt.Errorf("mac: payload %d bytes out of range", payloadBytes)
	}
	if !(timeout > 0) || math.IsInf(timeout, 1) {
		return fmt.Errorf("mac: timeout %v must be finite and positive", timeout)
	}
	*s = Sender{
		Window: window, TimeoutSeconds: timeout, PayloadBytes: payloadBytes, rng: rng,
		inflight: s.inflight[:0], payloadBuf: s.payloadBuf,
	}
	return nil
}

// payloadFor deterministically generates the frame body for a sequence
// number. The returned slice is the sender's scratch buffer, valid until
// the next payloadFor / NextFrame call.
func (s *Sender) payloadFor(seq uint16) []byte {
	s.payloadBuf = appendPayloadFor(s.payloadBuf, &s.payloadPCG, seq, s.PayloadBytes)
	return s.payloadBuf
}

// DecisionKind names what a NextFrame call decided.
type DecisionKind uint8

const (
	// Fresh sends a new sequence number.
	Fresh DecisionKind = iota
	// Retransmit sends the oldest timed-out frame again.
	Retransmit
	// Stall sends nothing: the window is full and nothing has timed out.
	Stall
)

// Decision is what a NextFrame call decided and why.
type Decision struct {
	Kind DecisionKind
	// InFlight counts the frames in flight when the sender decided.
	InFlight int
	// Age is a retransmission's time since the frame's previous
	// transmission.
	Age float64
}

// LastDecision returns what the last NextFrame call decided.
func (s *Sender) LastDecision() Decision { return s.last }

// NextFrame returns the next frame body to transmit at time now:
// a timed-out retransmission if any, else a new frame if the window
// allows. ok is false when the sender must idle. The body aliases the
// sender's scratch buffer and is valid until the next call.
func (s *Sender) NextFrame(now float64) (seq uint16, body []byte, ok bool) {
	s.last = Decision{InFlight: len(s.inflight)}
	// Oldest timed-out frame first.
	found := false
	oldest := -1
	var oldestAt float64
	for i := range s.inflight {
		if at := s.inflight[i].lastTx; now-at >= s.TimeoutSeconds && (!found || at < oldestAt) {
			oldest, oldestAt, found = i, at, true
		}
	}
	if found {
		f := &s.inflight[oldest]
		s.last.Kind, s.last.Age = Retransmit, now-f.lastTx
		f.lastTx = now
		s.framesSent++
		s.retransmits++
		return f.seq, s.payloadFor(f.seq), true
	}
	if len(s.inflight) >= s.Window {
		s.last.Kind = Stall
		return 0, nil, false
	}
	seq = s.nextSeq
	s.nextSeq++
	// Reissuing a wrapped sequence number starts a fresh incarnation: its
	// previous acked bit must not swallow the new frame's goodput.
	s.acked.clear(seq)
	s.inflight = append(s.inflight, flight{seq: seq, lastTx: now, firstTx: now})
	s.framesSent++
	return seq, s.payloadFor(seq), true
}

// takeFlight removes and returns the in-flight entry for seq, preserving
// insertion order. ok is false when seq is not in flight (duplicate ACK).
func (s *Sender) takeFlight(seq uint16) (f flight, ok bool) {
	for i := range s.inflight {
		if s.inflight[i].seq == seq {
			f = s.inflight[i]
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			return f, true
		}
	}
	return flight{}, false
}

// OnAckAt processes an acknowledgement arriving at time at, crediting its
// payload once per incarnation, and returns the end-to-end latency from
// the sequence number's FIRST transmission — the delay the application
// experienced, retransmissions included. ok is false for duplicate ACKs
// (latency already reported) and for sequence numbers this sender never
// sent.
func (s *Sender) OnAckAt(seq uint16, at float64) (latency float64, ok bool) {
	if f, found := s.takeFlight(seq); found {
		latency, ok = at-f.firstTx, true
	}
	if !s.acked.has(seq) {
		s.acked.set(seq)
		s.uniqueAcked++
		s.ackedPayload += int64(s.PayloadBytes)
	}
	return latency, ok
}

// Stats snapshot.
func (s *Sender) FramesSent() int     { return s.framesSent }
func (s *Sender) Retransmits() int    { return s.retransmits }
func (s *Sender) AckedPayload() int64 { return s.ackedPayload }
func (s *Sender) InFlight() int       { return len(s.inflight) }

// UniqueAcked counts acknowledged frame incarnations. Within the first
// 65536 frames this equals the number of distinct acked sequence numbers;
// past a wrap each reissue counts again, which is the delivered-frame
// count a long-lived session actually wants.
func (s *Sender) UniqueAcked() int { return s.uniqueAcked }

// Receiver is the ARQ peer: it validates the deterministic payload,
// deduplicates by sequence number, and produces acknowledgements.
//
// Deduplication is windowed like the sender's bookkeeping: a seen bitmap
// plus a head cursor that clears reissued sequence numbers as the head
// advances past them, so memory stays fixed and wrapped sessions count
// redelivered incarnations as fresh payload rather than duplicates.
type Receiver struct {
	payloadBytes int
	seen         seqBitmap
	head         uint16
	headSet      bool
	delivered    int64
	duplicates   int
	corrupt      int

	wantBuf []byte
	wantPCG rand.PCG
}

// NewReceiverSide builds the receiver-side ARQ state.
func NewReceiverSide(payloadBytes int) *Receiver {
	r := &Receiver{}
	r.Reset(payloadBytes)
	return r
}

// Reset returns the receiver to its just-constructed state, reusing the
// validation scratch, so an arena can rent it across sessions.
func (r *Receiver) Reset(payloadBytes int) {
	*r = Receiver{payloadBytes: payloadBytes, wantBuf: r.wantBuf}
}

// advanceHead moves the dedup window head forward to seq, clearing the
// seen bits of every sequence number the head passes: those numbers are
// now a full 2^16 behind the sender and their next appearance is a new
// incarnation. Signed 16-bit distance tells forward from backward, the
// same arithmetic the sender's window implies (in-order delivery keeps
// |seq-head| far below 2^15).
func (r *Receiver) advanceHead(seq uint16) {
	if !r.headSet {
		r.head, r.headSet = seq, true
		return
	}
	d := int16(seq - r.head)
	for ; d > 0; d-- {
		r.head++
		r.seen.clear(r.head)
	}
}

// OnFrame processes a decoded frame body and returns the sequence to
// acknowledge. Frames whose payload does not match the deterministic
// generator are counted as corrupt and not acknowledged (they passed CRC
// by a fluke, which at 2^-16 residual probability does happen in long
// runs).
func (r *Receiver) OnFrame(body []byte) (seq uint16, ackIt bool) {
	if len(body) != SeqBytes+r.payloadBytes {
		r.corrupt++
		return 0, false
	}
	seq = binary.BigEndian.Uint16(body)
	r.wantBuf = appendPayloadFor(r.wantBuf, &r.wantPCG, seq, r.payloadBytes)
	for i := range body {
		if body[i] != r.wantBuf[i] {
			r.corrupt++
			return 0, false
		}
	}
	r.advanceHead(seq)
	if r.seen.has(seq) {
		r.duplicates++
		return seq, true // re-ack: the previous ACK may have been lost
	}
	r.seen.set(seq)
	r.delivered += int64(r.payloadBytes)
	return seq, true
}

// Stats snapshot.
func (r *Receiver) DeliveredPayload() int64 { return r.delivered }
func (r *Receiver) Duplicates() int         { return r.duplicates }
func (r *Receiver) Corrupt() int            { return r.corrupt }
