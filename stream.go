package smartvlc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"smartvlc/internal/frame"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
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
type Stream struct {
	sys      *System
	geometry Geometry
	ambient  float64
	level    float64
	seed     uint64

	// MaxAttempts bounds retransmissions per chunk before Write fails.
	MaxAttempts int
	// ChunkBytes is the payload per frame (header adds 2 bytes).
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

	// clock times spans, logs and health on the stream's own cumulative
	// airtime, so identically-seeded streams trace identically.
	clock telemetry.SlotClock

	// Telemetry (nil by default — no-op).
	reg      *telemetry.Registry
	framesC  *telemetry.Counter
	retriesC *telemetry.Counter
	deliverC *telemetry.Counter
	attemptH *telemetry.Histogram

	// Spans (nil by default — no-op): one "chunk" root per chunk with a
	// "chunk/tx" child per attempt, on the same simulated clock. txSpans
	// holds the chunk's attempts until its root is recorded.
	spans   *span.Collector
	txSpans []span.Span

	// Health (nil by default — no-op): a link-health monitor sampled on
	// the stream's airtime clock. See SetHealth.
	mon *health.Monitor

	// Logs (nil by default — no-op): structured chunk-lifecycle records on
	// the stream's airtime clock. See SetLog.
	log *vlog.Logger
}

// OpenStream returns a byte pipe over the given link operating point at
// an initial dimming level.
func (s *System) OpenStream(g Geometry, ambientLux, level float64, seed uint64) (*Stream, error) {
	if err := g.Validate(); err != nil {
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
		clock:       telemetry.SlotClock{TSlotSeconds: tslotSeconds},
	}, nil
}

// SetTelemetry attaches a metrics registry to the stream: frame,
// retry and delivered-byte counters and the per-chunk attempt histogram.
// Call before the first Write; a nil registry restores the no-op
// default.
func (st *Stream) SetTelemetry(r *telemetry.Registry) {
	st.reg = r
	st.framesC = r.Counter("stream_frames_tx_total")
	st.retriesC = r.Counter("stream_retries_total")
	st.deliverC = r.Counter("stream_delivered_bytes_total")
	r.Help("stream_chunk_attempts", "Transmission attempts needed per delivered chunk.")
	st.attemptH = r.Histogram("stream_chunk_attempts")
}

// SetSpans attaches a span collector to the stream: each chunk records a
// "chunk" root span (attributes: dimming level, attempts, payload bytes)
// with one "chunk/tx" child per transmission attempt, timed on the
// stream's simulated clock. Call before the first Write; nil restores
// the no-op default.
func (st *Stream) SetSpans(c *span.Collector) {
	st.spans = c
}

// Telemetry returns the snapshot of the attached registry, or nil when
// none was attached.
func (st *Stream) Telemetry() *TelemetrySnapshot {
	if st.reg == nil {
		return nil
	}
	return st.reg.Snapshot()
}

// SetLog attaches a structured logger to the stream: each chunk records
// its transmission attempts (Debug), its delivery (Debug, with attempt
// count and payload bytes) or its exhaustion (Error), stamped on the
// stream's airtime clock — so identically-seeded streams log
// byte-identically. The stream is single-threaded, so records go to the
// logger directly in program order. Call before the first Write; nil
// restores the no-op default.
func (st *Stream) SetLog(l *vlog.Logger) {
	st.log = l
}

// Logs returns the snapshot of the attached logger, or nil when none was
// attached.
func (st *Stream) Logs() *vlog.Snapshot {
	if st.log == nil {
		return nil
	}
	return st.log.Snapshot()
}

// SetHealth attaches a link-health monitor to the stream. Time-series
// buckets are sealed on the stream's airtime clock (cumulative airtime
// slots × tslot), so identically-seeded streams produce byte-identical
// health snapshots. Frame loss here counts failed chunk attempts, ACK
// latency is the first-attempt→delivery delay per chunk, and symbol
// counts are not available at this layer (SER windows stay undefined and
// hold their state). Call before the first Write; nil restores the no-op
// default.
func (st *Stream) SetHealth(cfg *health.Config) {
	if cfg == nil {
		st.mon = nil
		return
	}
	hc := *cfg
	if hc.TSlotSeconds <= 0 {
		hc.TSlotSeconds = tslotSeconds
	}
	if hc.Registry == nil {
		hc.Registry = st.reg
	}
	st.mon = health.NewMonitor(hc)
}

// Health seals completed buckets up to the stream's current airtime and
// returns the health snapshot, or nil when no monitor is attached. The
// snapshot covers sealed buckets only; the monitor keeps running, so the
// stream can keep writing and Health can be polled between writes.
func (st *Stream) Health() *health.Snapshot {
	if st.mon == nil {
		return nil
	}
	st.mon.Tick(st.clock.At(st.airtimeSlots))
	return st.mon.Snapshot()
}

// FinishHealth flushes partial buckets at the stream's current airtime
// and returns the final frozen snapshot (nil without a monitor). Further
// writes are no longer observed.
func (st *Stream) FinishHealth() *health.Snapshot {
	if st.mon == nil {
		return nil
	}
	return st.mon.Finish(st.clock.At(st.airtimeSlots))
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
// MaxAttempts is exceeded). It returns the number of bytes accepted.
func (st *Stream) Write(p []byte) (int, error) {
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
	chunkStart := st.clock.At(st.airtimeSlots)
	st.mon.Tick(chunkStart)
	st.mon.ObserveLevel(chunkStart, st.level)
	st.txSpans = st.txSpans[:0]
	for attempt := 0; attempt < st.MaxAttempts; attempt++ {
		slots, err := frame.BuildAppend(st.slotBuf[:0], codec, body)
		if err != nil {
			return err
		}
		st.slotBuf = slots
		st.framesSent++
		st.framesC.Inc()
		st.mon.Tick(st.clock.At(st.airtimeSlots))
		st.mon.ObserveTx(st.clock.At(st.airtimeSlots), len(slots), attempt > 0)
		if st.spans != nil {
			st.txSpans = append(st.txSpans, span.Span{
				Name:  "chunk/tx",
				Start: st.clock.At(st.airtimeSlots), End: st.clock.At(st.airtimeSlots + len(slots)),
				Attrs: []span.Attr{{Key: "attempt", Value: strconv.Itoa(attempt + 1)}},
			})
		}
		if attempt > 0 && st.log.Enabled(vlog.Debug) {
			st.log.Record(vlog.Record{
				At: st.clock.At(st.airtimeSlots), Level: vlog.Debug, Stage: "stream/chunk",
				Msg: "chunk retransmitted", Seq: int64(st.chunk - 1),
				Dim:   strconv.FormatFloat(st.level, 'g', -1, 64),
				Attrs: []vlog.Attr{{Key: "attempt", Value: strconv.Itoa(attempt + 1)}},
			})
		}
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
				st.deliverC.Add(int64(len(pl) - 4))
				st.attemptH.Observe(float64(attempt + 1))
				deliverAt := st.clock.At(st.airtimeSlots)
				st.mon.ObserveRx(deliverAt, 1, 0, 0, 0)
				st.mon.ObserveDelivered(deliverAt, int64(len(pl)-4)*8)
				st.mon.ObserveAck(deliverAt, deliverAt-chunkStart)
				for len(st.attemptCounts) <= attempt {
					st.attemptCounts = append(st.attemptCounts, 0)
				}
				st.attemptCounts[attempt]++
				if st.log.Enabled(vlog.Debug) {
					st.log.Record(vlog.Record{
						At: deliverAt, Level: vlog.Debug, Stage: "stream/chunk",
						Msg: "chunk delivered", Seq: int64(st.chunk - 1),
						Dim: strconv.FormatFloat(st.level, 'g', -1, 64),
						Attrs: []vlog.Attr{
							{Key: "attempts", Value: strconv.Itoa(attempt + 1)},
							{Key: "bytes", Value: strconv.Itoa(len(pl) - 4)},
						},
					})
				}
				st.recordChunkSpan(chunkStart, attempt+1, len(pl)-4, "ok")
				return nil
			}
		}
		st.retries++
		st.retriesC.Inc()
		st.mon.ObserveRx(st.clock.At(st.airtimeSlots), 0, 1, 0, 0)
	}
	if st.log.Enabled(vlog.Error) {
		st.log.Record(vlog.Record{
			At: st.clock.At(st.airtimeSlots), Level: vlog.Error, Stage: "stream/chunk",
			Msg: "chunk undeliverable, attempts exhausted", Seq: int64(st.chunk - 1),
			Dim:   strconv.FormatFloat(st.level, 'g', -1, 64),
			Attrs: []vlog.Attr{{Key: "attempts", Value: strconv.Itoa(st.MaxAttempts)}},
		})
	}
	st.recordChunkSpan(chunkStart, st.MaxAttempts, 0, "failed")
	return fmt.Errorf("smartvlc: chunk %d undeliverable after %d attempts", st.chunk-1, st.MaxAttempts)
}

// recordChunkSpan closes one chunk's span tree: the "chunk" root over the
// whole (re)transmission history, with the per-attempt children recorded
// under it.
func (st *Stream) recordChunkSpan(start float64, attempts, deliveredBytes int, outcome string) {
	if st.spans == nil {
		return
	}
	seq := int64(st.chunk - 1)
	root := st.spans.Record(span.Span{
		Name: "chunk", Seq: seq, Start: start, End: st.clock.At(st.airtimeSlots),
		Attrs: []span.Attr{
			{Key: "level", Value: strconv.FormatFloat(st.level, 'g', -1, 64)},
			{Key: "attempts", Value: strconv.Itoa(attempts)},
			{Key: "bytes", Value: strconv.Itoa(deliveredBytes)},
			{Key: "outcome", Value: outcome},
		},
	})
	for _, tx := range st.txSpans {
		tx.Parent, tx.Seq = root, seq
		st.spans.Record(tx)
	}
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
