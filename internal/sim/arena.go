package sim

import (
	"math"
	"math/rand/v2"
	"strconv"
	"sync"

	"smartvlc/internal/hw"
	"smartvlc/internal/mac"
	"smartvlc/internal/parallel"
	"smartvlc/internal/phy"
	"smartvlc/internal/telemetry/span"
)

// This file holds the session arena: a reusable bundle of everything a
// session allocates, plus the ring/bitmap structures that replace the
// seq-keyed maps of the session loops. Byte-identity with fresh runs is
// the design invariant throughout — an arena may only change WHERE state
// lives, never what any session observes. The reset discipline that
// guarantees it (DESIGN.md §14):
//
//   - Every rented component is reset to its just-constructed state at
//     session start: RNG streams reseeded onto the exact (seed, salt)
//     streams a fresh run derives, MAC/PHY state cleared via the
//     components' own Reset methods, caches cleared (buckets kept).
//   - Scratch capacity is the ONLY thing that survives: retained buffers
//     make warm sessions allocation-free, and the sim/phy prof alloc
//     counters run on virtual high-water marks (reset per session) so
//     even the profiler's scratch-growth accounting matches a fresh run
//     bit for bit.
//   - Ring entries are validated by (generation, seq) tags instead of
//     being cleared: reset is O(1), and a stale entry can never be read
//     because the sequence window guarantees seq and seq±seqRingSize are
//     never live at once (the ARQ window blocks issue of seq+k until
//     seq's fate is settled, k ≤ Window « seqRingSize).

// seqRingSize is the span of the seq-keyed rings. It needs only to
// exceed the maximum number of sequence numbers that can be "live"
// (unacked, or awaiting a trailing duplicate ACK) at once — bounded by
// the ARQ window plus the ACK round trip (timeout + side-channel
// latency, a few dozen frames), two orders of magnitude below 1024.
const seqRingSize = 1 << 10

// seqRing replaces a per-session map[uint16]V over the in-window
// sequence numbers: the frame root spans, and the broadcast loop's first
// transmission times. Entries are tagged with (generation, seq); a lookup
// that misses returns the zero V, exactly like the map it replaces.
type seqRing[V any] struct {
	gen uint32
	ent [seqRingSize]struct {
		gen uint32
		seq uint16
		v   V
	}
}

func (r *seqRing[V]) reset() { r.gen++ }

func (r *seqRing[V]) set(seq uint16, v V) {
	e := &r.ent[seq&(seqRingSize-1)]
	e.gen, e.seq, e.v = r.gen, seq, v
}

// get returns seq's value; a nil ring (the roots of a session without
// spans) holds none.
func (r *seqRing[V]) get(seq uint16) (v V, ok bool) {
	if r == nil {
		return v, false
	}
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		return e.v, true
	}
	return v, false
}

// drop forgets seq's value (the map's delete).
func (r *seqRing[V]) drop(seq uint16) {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		e.gen = 0
	}
}

// ackRing replaces the broadcast loop's map[uint16]map[int]bool of
// per-frame receiver acknowledgment sets: one per-receiver bitmask per
// in-window sequence number.
type ackRing struct {
	gen    uint32
	nWords int
	ent    [seqRingSize]struct {
		gen   uint32
		seq   uint16
		count int
		words []uint64
	}
}

func (r *ackRing) reset(nRx int) {
	r.gen++
	r.nWords = (nRx + 63) / 64
}

// add marks receiver i as having acked seq and returns the number of
// distinct receivers recorded for it so far.
func (r *ackRing) add(seq uint16, i int) int {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen != r.gen || e.seq != seq {
		e.gen, e.seq, e.count = r.gen, seq, 0
		if cap(e.words) < r.nWords {
			e.words = make([]uint64, r.nWords)
		} else {
			e.words = e.words[:r.nWords]
			clear(e.words)
		}
	}
	w, b := i>>6, uint64(1)<<(i&63)
	if e.words[w]&b == 0 {
		e.words[w] |= b
		e.count++
	}
	return e.count
}

// drop forgets seq's acknowledgment set (the map's delete).
func (r *ackRing) drop(seq uint16) {
	e := &r.ent[seq&(seqRingSize-1)]
	if e.gen == r.gen && e.seq == seq {
		e.gen = 0
	}
}

// seqBits is a set over the full 16-bit sequence space (8 KB), replacing
// the broadcast loop's completed-frame map. Unlike the rings it is
// cleared wholesale per session — one 8 KB memclr.
type seqBits [1 << 16 / 64]uint64

func (b *seqBits) has(seq uint16) bool { return b[seq>>6]&(1<<(seq&63)) != 0 }
func (b *seqBits) set(seq uint16)      { b[seq>>6] |= 1 << (seq & 63) }
func (b *seqBits) clear(seq uint16)    { b[seq>>6] &^= 1 << (seq & 63) }
func (b *seqBits) resetAll()           { *b = seqBits{} }

// Arena owns everything a session allocates — the receiver shards with
// their PHY link/receiver pairs, ARQ receivers, span and log buffers and
// outboxes, the MAC sender and side channel, codec and prof-handle
// caches and slot buffers — so repeated sessions rent warm state instead
// of reallocating it.
// Results, telemetry, spans, health and prof snapshots are byte-identical
// to fresh-allocated runs for the same (config, duration).
//
// An Arena serves one session at a time and is not safe for concurrent
// use; fleets thread one arena per worker (see RunFleet). The zero value
// is ready to use.
type Arena struct {
	sidePCG, macPCG *rand.PCG
	sideRng, macRng *rand.Rand

	sender *mac.Sender
	sideCh *mac.SideChannel
	vlcUp  *mac.VLCUplink
	sensor *hw.Filter
	shards []*shard

	codecs codecCache
	levels map[float64]*levelProf

	slotBuf     []bool
	vSlotLen    int // virtual slot-buffer high-water; drives the frame-stage alloc counter
	deliveredAt []float64
	ackLat      []float64         // a broadcast desk's ACK latencies of one frame
	roots       *seqRing[span.ID] // lazily built: only span-armed sessions write it

	// Broadcast bookkeeping, lazily built on the first broadcast rent.
	acked    *ackRing
	complete *seqBits
	firstTx  *seqRing[float64]

	sess session
	step func(int) // sess.step, bound once for pooled fan-outs
}

// NewArena returns an empty arena. Allocation happens lazily as the
// first session rents components; every later session with compatible
// shapes reuses them.
func NewArena() *Arena { return &Arena{} }

// Run is sim.Run executing out of the arena: identical results and
// snapshots, with the session's working state rented from a instead of
// freshly allocated. See Run for the profiling-label behavior.
func (a *Arena) Run(cfg Config, duration float64) (res Result, err error) {
	labelled(&cfg, func() { res, err = run(cfg, duration, a) })
	return res, err
}

// RunBroadcast is sim.RunBroadcast executing out of the arena.
func (a *Arena) RunBroadcast(cfg BroadcastConfig, duration float64) (res BroadcastResult, err error) {
	labelled(&cfg.Config, func() { res, err = runBroadcast(cfg, duration, a) })
	return res, err
}

// labelled runs f, under the session's pprof goroutine labels when the
// stage profiler is armed.
func labelled(cfg *Config, f func()) {
	if cfg.Prof == nil || cfg.Scheme == nil {
		f()
		return
	}
	parallel.Do(f, "session", strconv.FormatUint(cfg.Seed, 10), "scheme", cfg.Scheme.Name())
}

// reseed rewinds the arena's side-channel and MAC generators onto the
// session's streams for mode m, creating them on first use; the shards'
// channel streams are reseeded by rentShards. The salts match the
// fresh-run derivations exactly, so rented and fresh sessions consume
// identical randomness.
func (a *Arena) reseed(seed uint64, m mode) {
	if a.sidePCG == nil {
		a.sidePCG = rand.NewPCG(seed, m.sideSalt)
		a.sideRng = rand.New(a.sidePCG)
		a.macPCG = rand.NewPCG(seed, m.macSalt)
		a.macRng = rand.New(a.macPCG)
		return
	}
	a.sidePCG.Seed(seed, m.sideSalt)
	a.macPCG.Seed(seed, m.macSalt)
}

// rentSender resets the arena's ARQ sender for the session (building it
// on first use), on the arena's MAC stream.
func (a *Arena) rentSender(window, payloadBytes int, timeout float64) (*mac.Sender, error) {
	if a.sender == nil {
		a.sender = new(mac.Sender)
	}
	return a.sender, a.sender.Reset(window, payloadBytes, timeout, a.macRng)
}

// rentSideChannel resets the arena's Wi-Fi side channel on the arena's
// side stream.
func (a *Arena) rentSideChannel(latency, jitter, loss float64) *mac.SideChannel {
	if a.sideCh == nil {
		a.sideCh = new(mac.SideChannel)
	}
	a.sideCh.Reset(latency, jitter, loss, a.sideRng)
	return a.sideCh
}

// rentVLCUplink resets the arena's VLC return link.
func (a *Arena) rentVLCUplink(bitRate float64, messageBits int, rangeM, distanceM float64) *mac.VLCUplink {
	if a.vlcUp == nil {
		a.vlcUp = new(mac.VLCUplink)
	}
	a.vlcUp.Reset(bitRate, messageBits, rangeM, distanceM)
	return a.vlcUp
}

// rentSensor resets the arena's ambient-light filter.
func (a *Arena) rentSensor(pd hw.Photodiode) *hw.Filter {
	if a.sensor == nil {
		a.sensor = new(hw.Filter)
	}
	a.sensor.Reset(pd)
	return a.sensor
}

// rentLevels clears and returns the per-level profiler-handle cache.
// Cleared per session (not reused across them) because the handles
// belong to the session's profiler and the label contexts embed its
// seed; the map's buckets survive, so steady-state sessions insert
// without allocating.
func (a *Arena) rentLevels() map[float64]*levelProf {
	if a.levels == nil {
		a.levels = make(map[float64]*levelProf, 4)
	} else {
		clear(a.levels)
	}
	return a.levels
}

// rentShards resets the first n receiver shards for a session, growing
// the shard list on first use. Shard i's generator is reseeded onto the
// stream parallel.PCG derives for (seed, salt, i), so its draws are
// identical to a fresh run's. Receivers are configured by the session's
// channel rebuild, whose Reset also rewinds their virtual alloc counters.
func (a *Arena) rentShards(n int, seed, salt uint64, payloadBytes int) []*shard {
	for i := len(a.shards); i < n; i++ {
		a.shards = append(a.shards, &shard{
			rx:    new(phy.Receiver),
			name:  "rx" + strconv.Itoa(i),
			attrs: []span.Attr{{Key: "rx", Value: strconv.Itoa(i)}},
		})
	}
	shards := a.shards[:n]
	for i, sh := range shards {
		if sh.pcg == nil {
			sh.pcg = parallel.PCG(seed, salt, i)
			sh.rng = rand.New(sh.pcg)
		} else {
			parallel.ReseedPCG(sh.pcg, seed, salt, i)
		}
		if sh.macRx == nil {
			sh.macRx = mac.NewReceiverSide(payloadBytes)
		} else {
			sh.macRx.Reset(payloadBytes)
		}
		sh.link = phy.Link{}
		sh.lastLux = math.Inf(-1)
		sh.mon, sh.health = nil, nil
		sh.prof = rxProf{}
		sh.out.reset()
		sh.remote, sh.reported = 0, false
		sh.sumAcc, sh.sumN = 0, 0
	}
	return shards
}

// rentRoots returns the reset frame-root ring when spans are armed, and
// nil otherwise — a nil ring's get misses, returning the zero span ID.
func (a *Arena) rentRoots(armed bool) *seqRing[span.ID] {
	if !armed {
		return nil
	}
	if a.roots == nil {
		a.roots = new(seqRing[span.ID])
	}
	a.roots.reset()
	return a.roots
}

// rentBcBookkeeping resets the broadcast loop's reliable-delivery
// structures: the per-seq receiver-ack sets, the completed-seq bitmap and
// the first-transmission time ring.
func (a *Arena) rentBcBookkeeping(nRx int) (*ackRing, *seqBits, *seqRing[float64]) {
	if a.acked == nil {
		a.acked = new(ackRing)
		a.complete = new(seqBits)
		a.firstTx = new(seqRing[float64])
	}
	a.acked.reset(nRx)
	a.complete.resetAll()
	a.firstTx.reset()
	return a.acked, a.complete, a.firstTx
}

// frameAlloc applies the frame-stage scratch-growth rule: one virtual
// allocation whenever a frame's slot waveform exceeds the session's
// high-water length. The rule is a pure function of the (deterministic)
// waveform lengths, so warm and fresh sessions account identically —
// unlike the retained buffer's real reallocations, which warm sessions
// skip.
func (a *Arena) frameAlloc(slotLen int) bool {
	if slotLen > a.vSlotLen {
		a.vSlotLen = slotLen
		return true
	}
	return false
}

// FleetArenas is a concurrency-safe pool of session arenas for fleet
// runs: RunFleet rents one arena per worker per call, and a persistent
// FleetArenas keeps those arenas warm across calls — the steady-state
// regime of a long-lived session service, where per-session allocation
// approaches zero.
type FleetArenas struct {
	mu   sync.Mutex
	free []*Arena
}

// NewFleetArenas returns an empty arena pool.
func NewFleetArenas() *FleetArenas { return &FleetArenas{} }

// rent pops a warm arena or builds a fresh one.
func (f *FleetArenas) rent() *Arena {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		a := f.free[n-1]
		f.free = f.free[:n-1]
		return a
	}
	return NewArena()
}

// release returns an arena to the pool.
func (f *FleetArenas) release(a *Arena) {
	f.mu.Lock()
	f.free = append(f.free, a)
	f.mu.Unlock()
}
