// Package span records per-frame causal spans: the stages one frame
// passes through on its way across the link (frame/build → frame/tx →
// frame/channel → phy/hunt → phy/decode → mac/ack | mac/retx), as a tree
// whose root is the frame's on-air interval and whose retransmissions are
// linked parent→child across roots. Spans carry attributes (dimming
// level, scheme, slot window, decode error class) so a throughput dip can
// be reconstructed frame by frame after the fact — the post-mortem
// evidence flat counters cannot provide.
//
// The package follows the two rules of the telemetry layer it extends:
//
//   - Determinism. All timestamps are simulation time; span IDs are
//     assigned in record order. Two identically seeded sessions produce
//     byte-identical snapshots and Chrome-trace exports — including
//     multi-receiver sessions on any worker count, because the receiver
//     spans are rendered from each shard's events (phy.RecordSpans) in
//     shard order by the session's sequential merge.
//
//   - Nil is the no-op default. Every method on a nil *Collector does
//     nothing, so hot paths carry a span handle unconditionally and pay
//     one nil check when spans are off.
package span

import "sync"

// ID identifies a recorded span. 0 means "no span" (the nil-collector
// result and the zero Parent). Collector IDs are positive, assigned in
// record order.
type ID int64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one pipeline stage of one frame. Start and End are
// deterministic simulation time in seconds; a point-in-time marker has
// Start == End.
type Span struct {
	// ID is the collector-assigned identity (record order).
	ID ID `json:"id"`
	// Parent links the span into its frame's tree; for a retransmitted
	// frame's root span, Parent is the previous transmission's root,
	// chaining the retransmit history parent→child.
	Parent ID `json:"parent,omitempty"`
	// Seq is the frame or chunk sequence the span belongs to (-1 when the
	// emitter cannot attribute it, e.g. a noise decode).
	Seq int64 `json:"seq"`
	// Name is the stage name, e.g. "frame", "frame/tx", "phy/decode".
	Name string `json:"name"`
	// Start and End bound the stage in simulation seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Attrs are optional annotations (sorted only if the emitter sorts
	// them; emit in a fixed order for determinism).
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration returns End - Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Attr returns the value of the named attribute and whether it exists.
func (s Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// DefaultCapacity bounds the span ring until SetCapacity overrides it.
// Once full, the oldest spans are dropped (and counted): long sessions
// keep the tail of the story, which is the part post-mortems need.
const DefaultCapacity = 1 << 14

// Collector accumulates spans in a bounded ring. The zero value is not
// usable; call NewCollector. A nil *Collector is the no-op default.
type Collector struct {
	mu      sync.Mutex
	buf     []Span
	next    int // ring write position once full
	cap     int
	nextID  ID
	total   int64
	dropped int64
}

// NewCollector returns an empty collector with the default capacity.
func NewCollector() *Collector {
	return &Collector{cap: DefaultCapacity}
}

// SetCapacity resizes the span ring, discarding spans already recorded;
// call it before the session starts. Zero or negative restores the
// default capacity.
func (c *Collector) SetCapacity(n int) {
	if c == nil {
		return
	}
	if n <= 0 {
		n = DefaultCapacity
	}
	c.mu.Lock()
	c.buf = nil
	c.cap = n
	c.next = 0
	c.nextID = 0
	c.total = 0
	c.dropped = 0
	c.mu.Unlock()
}

// Record assigns the next ID to s and stores it. The caller fills every
// field except ID; pass complete spans (Start and End both known) — the
// simulation computes stage boundaries synchronously, so there is no
// open-span bookkeeping to get wrong. Returns 0 on a nil collector.
func (c *Collector) Record(s Span) ID {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	id := c.record(s)
	c.mu.Unlock()
	return id
}

// record is Record without the lock; callers hold c.mu.
func (c *Collector) record(s Span) ID {
	if c.cap == 0 {
		c.cap = DefaultCapacity
	}
	c.nextID++
	s.ID = c.nextID
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, s)
	} else {
		c.buf[c.next] = s
		c.dropped++
	}
	c.next = (c.next + 1) % c.cap
	c.total++
	return s.ID
}
