package smartvlc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"smartvlc/internal/frame"
	"smartvlc/internal/photon"
)

// Stream is a reliable, ordered byte pipe over a simulated SmartVLC link,
// implementing io.Writer and io.Reader: bytes written at the transmitter
// side come out of Read at the receiver side, carried by AMPPM frames
// over the optical channel with per-chunk retransmission.
//
// A Stream is synchronous and single-threaded: Write drives the channel
// simulation to completion before returning, and Read drains what has
// been delivered so far (returning io.EOF when the buffer is empty).
// The dimming level may change between writes — mid-stream adaptation is
// exactly what AMPPM is for.
//
// A Stream has no observer of its own: arm its System (SetTelemetry,
// SetSpans) to observe it. Each transmission attempt is one Deliver,
// counted in the phy_* series and recorded as one "deliver" span tree;
// Stats summarizes the chunks.
type Stream struct {
	sys      *System
	geometry Geometry
	ambient  float64
	level    float64
	seed     uint64

	// MaxAttempts bounds retransmissions per chunk before Write fails.
	MaxAttempts int
	// ChunkBytes is the payload per frame, after a 4-byte chunk number.
	// Write fails when it is below 1.
	ChunkBytes int

	rx    bytes.Buffer
	chunk uint32

	// Reused per-chunk buffers: the synchronous Write loop would otherwise
	// allocate a frame body and slot waveform per attempt.
	body    []byte
	slotBuf []bool

	// Stats.
	framesSent     int
	retries        int
	airtimeSlots   int
	bytesDelivered int64
	attemptCounts  []int64 // attemptCounts[k]: chunks delivered on attempt k+1
}

// OpenStream returns a byte pipe over the given link operating point at
// an initial dimming level. It rejects a geometry or ambient level that
// Deliver would reject.
func (s *System) OpenStream(g Geometry, ambientLux, level float64, seed uint64) (*Stream, error) {
	if _, err := photon.DefaultLinkBudget().ChannelAt(g, ambientLux); err != nil {
		return nil, err
	}
	lo, hi := s.LevelRange()
	if !(level >= lo && level <= hi) { // NaN fails too
		return nil, fmt.Errorf("smartvlc: level %v outside [%v, %v]", level, lo, hi)
	}
	return &Stream{
		sys:         s,
		geometry:    g,
		ambient:     ambientLux,
		level:       level,
		seed:        seed,
		MaxAttempts: 20,
		ChunkBytes:  126,
	}, nil
}

// SetLevel changes the dimming level for subsequent writes.
func (st *Stream) SetLevel(level float64) error {
	lo, hi := st.sys.LevelRange()
	if !(level >= lo && level <= hi) { // NaN fails too
		return fmt.Errorf("smartvlc: level %v outside [%v, %v]", level, lo, hi)
	}
	st.level = level
	return nil
}

// Level returns the current dimming level.
func (st *Stream) Level() float64 { return st.level }

// Write segments p into frames and pushes them through the optical
// channel, retransmitting lost chunks until everything is delivered (or
// MaxAttempts is exceeded). It returns the number of bytes accepted, and
// fails before sending a frame when ChunkBytes is below 1.
func (st *Stream) Write(p []byte) (int, error) {
	if st.ChunkBytes < 1 {
		return 0, fmt.Errorf("smartvlc: ChunkBytes %d < 1", st.ChunkBytes)
	}
	written := 0
	for len(p) > 0 {
		n := st.ChunkBytes
		if n > len(p) {
			n = len(p)
		}
		if err := st.sendChunk(p[:n]); err != nil {
			return written, err
		}
		p = p[n:]
		written += n
	}
	return written, nil
}

func (st *Stream) sendChunk(data []byte) error {
	body := append(st.body[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(body, st.chunk)
	body = append(body, data...)
	st.body = body
	st.chunk++

	codec, err := st.sys.sch.CodecFor(st.level)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < st.MaxAttempts; attempt++ {
		slots, err := frame.BuildAppend(st.slotBuf[:0], codec, body)
		if err != nil {
			return err
		}
		st.slotBuf = slots
		st.framesSent++
		st.airtimeSlots += len(slots)
		st.seed++
		payloads, err := st.sys.Deliver(st.geometry, st.ambient, st.seed, slots)
		if err != nil {
			return err
		}
		for _, pl := range payloads {
			if len(pl) >= 4 && bytes.Equal(pl[:4], body[:4]) {
				st.rx.Write(pl[4:])
				st.bytesDelivered += int64(len(pl) - 4)
				for len(st.attemptCounts) <= attempt {
					st.attemptCounts = append(st.attemptCounts, 0)
				}
				st.attemptCounts[attempt]++
				return nil
			}
		}
		st.retries++
	}
	return fmt.Errorf("smartvlc: chunk %d undeliverable after %d attempts", st.chunk-1, st.MaxAttempts)
}

// Read drains delivered bytes; it returns io.EOF once the buffer is
// empty (more bytes may appear after further writes).
func (st *Stream) Read(p []byte) (int, error) {
	if st.rx.Len() == 0 {
		return 0, io.EOF
	}
	return st.rx.Read(p)
}

// Buffered returns how many delivered bytes await Read.
func (st *Stream) Buffered() int { return st.rx.Len() }

// tslotSeconds is the paper's slot time (tslot = 8 µs, f_tx = 125 kHz).
const tslotSeconds = 8e-6

// AirtimeSeconds returns the total simulated air time spent, including
// retransmissions.
func (st *Stream) AirtimeSeconds() float64 { return float64(st.airtimeSlots) * tslotSeconds }

// StreamStats summarizes a stream's transmission history.
type StreamStats struct {
	// FramesSent counts every frame put on the air, retransmissions
	// included.
	FramesSent int
	// Retries counts attempts that did not deliver their chunk.
	Retries int
	// AirtimeSlots is the cumulative on-air length in slots.
	AirtimeSlots int
	// DeliveredBytes is the unique payload delivered to the read side.
	DeliveredBytes int64
	// ChunkAttempts is the per-chunk attempt histogram:
	// ChunkAttempts[k] chunks were delivered on attempt k+1.
	ChunkAttempts []int64
}

// Stats returns the stream's transmission statistics.
func (st *Stream) Stats() StreamStats {
	return StreamStats{
		FramesSent:     st.framesSent,
		Retries:        st.retries,
		AirtimeSlots:   st.airtimeSlots,
		DeliveredBytes: st.bytesDelivered,
		ChunkAttempts:  append([]int64(nil), st.attemptCounts...),
	}
}
