package mac

import "math"

// Uplink abstracts the return channel that carries ACKs and ambient
// reports from receivers to the transmitter. The paper's prototype uses
// Wi-Fi (SideChannel); its future-work section anticipates a VLC uplink
// once mobile nodes carry capable LEDs — VLCUplink models that.
type Uplink interface {
	// Send enqueues a message at time now and returns its arrival time;
	// ok is false when the message is dropped.
	Send(now float64, m Message) (at float64, ok bool)
	// Receive returns all messages delivered by time now, in order.
	Receive(now float64) []Message
	// Pending returns the number of undelivered messages.
	Pending() int
}

// SideChannel implements Uplink.
var _ Uplink = (*SideChannel)(nil)

// VLCUplink is a serialized low-rate optical return link: a small LED on
// the mobile node. Unlike Wi-Fi it has no contention jitter, but it is
// half-duplex-serial — messages queue behind each other at AckBits/BitRate
// per message — and it only works within its own (short) range.
type VLCUplink struct {
	// BitRate is the uplink PHY rate; mobile-node LEDs are far weaker
	// than the luminaire (e.g. 10 kbps).
	BitRate float64
	// MessageBits is the on-air size of one ACK/report frame, including
	// its own preamble and CRC.
	MessageBits int
	// RangeM is the uplink's maximum distance; beyond it every message is
	// lost — the field-of-view problem the paper cites as the reason it
	// used Wi-Fi.
	RangeM float64
	// DistanceM is the current link distance.
	DistanceM float64

	lastFree float64
	inbox
}

// NewVLCUplink returns an uplink with the given PHY rate and range at the
// current distance. Typical values: 10 kbps, 96-bit messages, 2.0 m range.
func NewVLCUplink(bitRate float64, messageBits int, rangeM, distanceM float64) *VLCUplink {
	return &VLCUplink{BitRate: bitRate, MessageBits: messageBits, RangeM: rangeM, DistanceM: distanceM}
}

// Reset returns the uplink to its just-constructed state for the given
// parameters, keeping queue and scratch capacity for a renting arena.
func (u *VLCUplink) Reset(bitRate float64, messageBits int, rangeM, distanceM float64) {
	*u = VLCUplink{BitRate: bitRate, MessageBits: messageBits, RangeM: rangeM, DistanceM: distanceM, inbox: u.inbox.reset()}
}

// Send implements Uplink.
func (u *VLCUplink) Send(now float64, m Message) (at float64, ok bool) {
	if u.DistanceM > u.RangeM || u.BitRate <= 0 {
		return 0, false // out of range: the weak LED cannot reach the luminaire
	}
	start := math.Max(now, u.lastFree)
	airtime := float64(u.MessageBits) / u.BitRate
	u.lastFree = start + airtime
	m.At = u.lastFree
	u.queue = append(u.queue, m)
	return m.At, true
}
