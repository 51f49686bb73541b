package scheme

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smartvlc/internal/amppm"
	"smartvlc/internal/bitio"
	"smartvlc/internal/frame"
	"smartvlc/internal/telemetry"
)

// Codec-cache efficiency counters on the process-global registry, summed
// over all AMPPM instances (per-instance numbers come from CacheStats).
var (
	codecCacheHits   = telemetry.Global().Counter("scheme_codec_cache_total", "result", "hit")
	codecCacheMisses = telemetry.Global().Counter("scheme_codec_cache_total", "result", "miss")
)

// maxCodecCache bounds each of the AMPPM codec caches. Genuine traffic
// touches a few dozen levels and descriptors; the caps only matter when
// channel corruption synthesizes many distinct-but-valid descriptors, in
// which case extra codecs are simply built uncached.
const maxCodecCache = 1 << 12

// AMPPM is the paper's scheme: adaptive super-symbols selected from the
// throughput envelope.
//
// An AMPPM is safe for concurrent use: the planning table is immutable
// and the codec caches are lock-protected. Codecs themselves are
// stateless after construction and may be shared freely.
type AMPPM struct {
	table *amppm.Table

	mu      sync.RWMutex
	byLevel map[float64]frame.PayloadCodec
	byDesc  map[[frame.PatternBytes]byte]frame.PayloadCodec

	cacheHits, cacheMisses atomic.Int64
}

// CodecCacheStats reports this instance's cumulative codec-cache hit and
// miss counts, across both the per-level (CodecFor) and per-descriptor
// (Factory) caches.
func (a *AMPPM) CodecCacheStats() (hits, misses int64) {
	return a.cacheHits.Load(), a.cacheMisses.Load()
}

func (a *AMPPM) onCacheHit() {
	a.cacheHits.Add(1)
	codecCacheHits.Inc()
}

func (a *AMPPM) onCacheMiss() {
	a.cacheMisses.Add(1)
	codecCacheMisses.Inc()
}

// NewAMPPM builds the scheme from link constraints (both sides must use
// identical constraints so their envelope vertex tables agree).
func NewAMPPM(cons amppm.Constraints) (*AMPPM, error) {
	t, err := amppm.NewTable(cons)
	if err != nil {
		return nil, err
	}
	return &AMPPM{
		table:   t,
		byLevel: map[float64]frame.PayloadCodec{},
		byDesc:  map[[frame.PatternBytes]byte]frame.PayloadCodec{},
	}, nil
}

// Table exposes the planning table (for inspection tools and experiments).
func (a *AMPPM) Table() *amppm.Table { return a.table }

// Name implements Scheme.
func (a *AMPPM) Name() string { return "AMPPM" }

// LevelRange implements Scheme.
func (a *AMPPM) LevelRange() (float64, float64) { return a.table.LevelRange() }

// CodecFor implements Scheme. Codecs are memoized per dimming level, so
// the per-frame lookup the session loop performs is a map hit.
func (a *AMPPM) CodecFor(level float64) (frame.PayloadCodec, error) {
	a.mu.RLock()
	c, ok := a.byLevel[level]
	a.mu.RUnlock()
	if ok {
		a.onCacheHit()
		return c, nil
	}
	a.onCacheMiss()
	s, err := a.table.Select(level)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLevelUnsupported, err)
	}
	c, err = a.codecForSuper(s)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if cached, ok := a.byLevel[level]; ok {
		c = cached // keep one canonical codec per level
	} else if len(a.byLevel) < maxCodecCache {
		a.byLevel[level] = c
	}
	a.mu.Unlock()
	return c, nil
}

func (a *AMPPM) codecForSuper(s amppm.SuperSymbol) (frame.PayloadCodec, error) {
	sc, err := amppm.NewSuperCodec(s)
	if err != nil {
		return nil, err
	}
	if sc.BitsPerSuper() == 0 {
		return nil, fmt.Errorf("%w: super-symbol %v carries no data", ErrLevelUnsupported, s)
	}
	desc, err := a.table.Descriptor(s)
	if err != nil {
		return nil, err
	}
	return &amppmCodec{sc: sc, desc: desc}, nil
}

// Factory implements Scheme. Reconstructed codecs are memoized per
// descriptor: the receiver invokes the factory for every frame header it
// parses, and rebuilding the constituent combinadic codecs each time
// dominates the parse cost.
func (a *AMPPM) Factory() frame.CodecFactory {
	return func(d [frame.PatternBytes]byte) (frame.PayloadCodec, error) {
		a.mu.RLock()
		c, ok := a.byDesc[d]
		a.mu.RUnlock()
		if ok {
			a.onCacheHit()
			return c, nil
		}
		a.onCacheMiss()
		s, err := a.table.ParseDescriptor(d)
		if err != nil {
			return nil, err
		}
		c, err = a.codecForSuper(s)
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		if cached, ok := a.byDesc[d]; ok {
			c = cached
		} else if len(a.byDesc) < maxCodecCache {
			a.byDesc[d] = c
		}
		a.mu.Unlock()
		return c, nil
	}
}

type amppmCodec struct {
	sc   *amppm.SuperCodec
	desc [frame.PatternBytes]byte
}

func (c *amppmCodec) Level() float64 { return c.sc.Super().Level() }

func (c *amppmCodec) Descriptor() [frame.PatternBytes]byte { return c.desc }

func (c *amppmCodec) PayloadSlots(nbytes int) int {
	return c.sc.SlotsForBits(nbytes * 8)
}

// PayloadSymbols returns the constituent symbols a payload of nbytes
// walks through the schedule — the optional interface the stage profiler
// probes to count symbols encoded/decoded. Codecs are shared and cached
// across sessions, so this is pure metadata with no per-session state.
func (c *amppmCodec) PayloadSymbols(nbytes int) int {
	return c.sc.SymbolsForBits(nbytes * 8)
}

func (c *amppmCodec) AppendPayload(dst []bool, data []byte) ([]bool, error) {
	return c.sc.AppendStream(dst, bitio.NewReader(data))
}

// writerPool recycles bit writers for AppendDecodedPayload: codecs are
// shared across goroutines through the caches above, so the decode
// scratch cannot live on the codec itself.
var writerPool = sync.Pool{New: func() any { return bitio.NewWriter() }}

// AppendDecodedPayload decodes into dst's backing array (grown only when
// the capacity is short), so the receiver's steady state decodes without
// allocating.
func (c *amppmCodec) AppendDecodedPayload(dst []byte, slots []bool, nbytes int) ([]byte, int, error) {
	w := writerPool.Get().(*bitio.Writer)
	w.Reset(dst)
	symErrs, err := c.sc.DecodeBits(slots, nbytes*8, w)
	out := w.Bytes()
	w.Reset(nil) // drop the buffer reference before pooling the writer
	writerPool.Put(w)
	if err != nil {
		return out, symErrs, err
	}
	if len(out) < nbytes {
		return out, symErrs, fmt.Errorf("scheme: amppm decoded %d bytes, need %d", len(out), nbytes)
	}
	return out[:nbytes], symErrs, nil
}
