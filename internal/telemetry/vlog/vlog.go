// Package vlog is the logging pillar of the telemetry layer: leveled,
// structured records of what the link *decided* — why a decode failed,
// when ARQ gave up on a window, which SLO crossed into critical — each
// carrying the correlation keys (frame sequence, span ID, stage, scheme,
// dimming level, receiver shard) that join a log line against the span
// tree, the histogram exemplars and the stage profile of the same frame.
//
// The package follows the two rules every other pillar obeys:
//
//   - Determinism. All timestamps are simulation time; record IDs are
//     assigned in record order. Two identically seeded sessions produce
//     byte-identical NDJSON snapshots — including multi-receiver
//     sessions on any worker count or GOMAXPROCS, because the receiver
//     records are rendered from each shard's events (phy.RecordLogs) in
//     shard order by the session's sequential merge, like its spans.
//
//   - Nil is the no-op default. Every method on a nil *Logger does
//     nothing, and Enabled reports false on nil, so hot paths guard
//     record construction behind one branch and pay zero allocations
//     when logging is off.
package vlog

import "sync"

// Level orders record severity. The zero value is Debug, so the zero
// Logger min-level keeps everything; raise it to thin the ring.
type Level int

const (
	// Debug records per-frame narration (preamble locks, clean decodes).
	Debug Level = iota
	// Info records session lifecycle and recoverable decisions.
	Info
	// Warn records degradation: decode errors, retransmits, SLO warnings.
	Warn
	// Error records failures: critical SLO burns.
	Error
)

// String returns the canonical lower-case level name used in exports.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a canonical level name back to its Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn":
		return Warn, true
	case "error":
		return Error, true
	}
	return 0, false
}

// Attr is one key/value annotation on a record, for the cold paths
// (SLO burn context, fleet indices) that don't fit the scalar fields.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Record is one structured log line. At is deterministic simulation
// time in seconds; the scalar fields are the correlation keys shared
// with spans, exemplars and prof stages, so joins need no parsing.
type Record struct {
	// ID is the logger-assigned identity (record order).
	ID int64 `json:"id"`
	// At is the simulation time of the decision, in seconds.
	At float64 `json:"at"`
	// Level is the record severity.
	Level Level `json:"level"`
	// Stage names the pipeline stage that emitted the record, using the
	// span stage vocabulary ("phy/decode", "mac/ack", "sim/slo", ...).
	Stage string `json:"stage"`
	// Msg is the human-readable one-liner.
	Msg string `json:"msg"`
	// Seq is the frame or chunk sequence the record belongs to (-1 when
	// the emitter cannot attribute it).
	Seq int64 `json:"seq"`
	// Span is the collector ID of the frame's root span (0 = none).
	Span int64 `json:"span,omitempty"`
	// Shard is the receiver shard ("rx0", "rx1", ...) for broadcast
	// records; empty on single-receiver paths.
	Shard string `json:"shard,omitempty"`
	// Scheme and Dim carry the modulation scheme and dimming level in
	// force when the record was emitted, when the emitter knows them.
	Scheme string `json:"scheme,omitempty"`
	Dim    string `json:"dim,omitempty"`
	// Attrs are optional annotations; emit in a fixed order for
	// determinism.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it exists.
func (r Record) Attr(key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// DefaultCapacity bounds the record ring until SetCapacity overrides it.
// Once full, the oldest records are dropped (and counted): long sessions
// keep the tail of the story, which is the part incident drills need.
const DefaultCapacity = 1 << 14

// Logger accumulates records in a bounded ring, keeping only those at or
// above its minimum level. The zero value is not usable; call New. A nil
// *Logger is the no-op default: Enabled reports false and Record does
// nothing, so an unarmed hot path costs one branch and zero allocations.
type Logger struct {
	mu      sync.Mutex
	min     Level
	buf     []Record
	next    int // ring write position once full
	cap     int
	nextID  int64
	total   int64
	dropped int64
}

// New returns an empty logger keeping records at or above min, with the
// default ring capacity.
func New(min Level) *Logger {
	return &Logger{min: min, cap: DefaultCapacity}
}

// Enabled reports whether records at the given level would be kept.
// False on a nil logger — the one branch a disabled call site pays.
func (l *Logger) Enabled(v Level) bool {
	return l != nil && v >= l.min
}

// SetCapacity resizes the record ring, discarding records already
// recorded; call it before the session starts. Zero or negative restores
// the default capacity.
func (l *Logger) SetCapacity(n int) {
	if l == nil {
		return
	}
	if n <= 0 {
		n = DefaultCapacity
	}
	l.mu.Lock()
	l.buf = nil
	l.cap = n
	l.next = 0
	l.nextID = 0
	l.total = 0
	l.dropped = 0
	l.mu.Unlock()
}

// Record assigns the next ID to r and stores it, if r.Level clears the
// minimum. The caller fills every field except ID. Returns 0 on a nil
// logger or a filtered level. Callers should guard record construction
// with Enabled so a filtered call allocates nothing.
func (l *Logger) Record(r Record) int64 {
	if l == nil || r.Level < l.min {
		return 0
	}
	l.mu.Lock()
	id := l.record(r)
	l.mu.Unlock()
	return id
}

// record is Record without the lock or level check; callers hold l.mu.
func (l *Logger) record(r Record) int64 {
	if l.cap == 0 {
		l.cap = DefaultCapacity
	}
	l.nextID++
	r.ID = l.nextID
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, r)
	} else {
		l.buf[l.next] = r
		l.dropped++
	}
	l.next = (l.next + 1) % l.cap
	l.total++
	return r.ID
}
