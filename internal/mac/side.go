// Package mac implements the link layer of SmartVLC: a sliding-window ARQ
// whose acknowledgements and ambient-light reports travel over the
// prototype's ESP8266 Wi-Fi side channel (paper §5.1 — the photodiode
// downlink is VLC, the uplink is Wi-Fi because mobile nodes lack a strong
// enough LED).
package mac

import "math/rand/v2"

// MessageKind discriminates side-channel messages.
type MessageKind int

// Side-channel message kinds.
const (
	// KindAck acknowledges one VLC frame by sequence number.
	KindAck MessageKind = iota
	// KindAmbientReport carries the receiver's sensed ambient level, used
	// by the transmitter's dimming controller (paper Fig. 2).
	KindAmbientReport
)

// Message is one side-channel datagram.
type Message struct {
	// At is the delivery time in seconds (stamped by the channel).
	At float64
	// Kind selects the payload field.
	Kind MessageKind
	// From identifies the sending receiver in multi-receiver sessions.
	From int
	// Seq is the acknowledged frame sequence (KindAck).
	Seq uint16
	// Lux is the reported ambient illuminance (KindAmbientReport).
	Lux float64
}

// SideChannel is the simulated Wi-Fi uplink: per-message latency with
// jitter and independent loss. Delivery order follows delivery time, which
// may reorder messages — receivers must tolerate that, as with real UDP
// datagrams.
type SideChannel struct {
	// LatencySeconds is the base one-way delay (ESP8266 over a busy office
	// WLAN: a few milliseconds).
	LatencySeconds float64
	// JitterSeconds is the uniform extra delay bound.
	JitterSeconds float64
	// LossProb is the independent drop probability.
	LossProb float64

	rng *rand.Rand
	inbox
}

// NewSideChannel builds a channel with its own deterministic RNG stream.
func NewSideChannel(latency, jitter, loss float64, rng *rand.Rand) *SideChannel {
	return &SideChannel{LatencySeconds: latency, JitterSeconds: jitter, LossProb: loss, rng: rng}
}

// Reset returns the channel to its just-constructed state for the given
// parameters, keeping the queue and receive scratch capacity so a renting
// arena pays no per-session allocations.
func (s *SideChannel) Reset(latency, jitter, loss float64, rng *rand.Rand) {
	*s = SideChannel{LatencySeconds: latency, JitterSeconds: jitter, LossProb: loss, rng: rng, inbox: s.inbox.reset()}
}

// Send enqueues a message at time now and returns its arrival time; ok is
// false when the channel drops it.
func (s *SideChannel) Send(now float64, m Message) (at float64, ok bool) {
	if s.LossProb > 0 && s.rng.Float64() < s.LossProb {
		return 0, false
	}
	d := s.LatencySeconds
	if s.JitterSeconds > 0 {
		d += s.rng.Float64() * s.JitterSeconds
	}
	m.At = now + d
	s.queue = append(s.queue, m)
	return m.At, true
}

// inbox holds an uplink's messages in flight.
type inbox struct {
	queue []Message
	out   []Message
}

// Receive removes and returns all messages delivered by time now, in
// delivery order. The returned slice aliases the inbox's scratch buffer
// and is valid until the next Receive call.
func (b *inbox) Receive(now float64) []Message {
	sortByAt(b.queue)
	n := 0
	for n < len(b.queue) && b.queue[n].At <= now {
		n++
	}
	b.out = append(b.out[:0], b.queue[:n]...)
	b.queue = b.queue[:copy(b.queue, b.queue[n:])]
	return b.out
}

// Pending returns the number of undelivered messages.
func (b *inbox) Pending() int { return len(b.queue) }

// reset returns an empty inbox that keeps b's capacity.
func (b *inbox) reset() inbox { return inbox{queue: b.queue[:0], out: b.out} }

// sortByAt stable-sorts messages by delivery time. It is a binary
// insertion sort — stable, so ties keep enqueue order exactly as
// sort.SliceStable with an At-less comparator would — chosen because the
// queue is nearly sorted (jitter only reorders neighbors) and because it
// avoids the comparator closure the sort package would allocate on a path
// Receive hits every simulated frame.
func sortByAt(q []Message) {
	for i := 1; i < len(q); i++ {
		m := q[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if q[mid].At <= m.At {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(q[lo+1:i+1], q[lo:i])
		q[lo] = m
	}
}
