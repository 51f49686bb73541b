package mppm

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
)

// Codec maps data values to MPPM codewords and back for one symbol pattern,
// using the combinatorial-dichotomy method of paper Algorithms 1 and 2.
// Unlike tabulation- or constellation-based mappings it needs no table of
// all C(N,K) codewords: each slot decision costs one binomial lookup, so
// memory stays O(N·K) (the cached binomial rows) instead of O(C(N,K)).
//
// A Codec is safe for concurrent use after construction.
type Codec struct {
	pattern Pattern
	bits    int

	// walk[i·(K+1)+j] = C(N−1−i, j−1), the completions that put an ON in
	// slot i with j ONs still to place, and 0 for j = 0: the one table
	// read per slot of Algorithms 1 and 2. A last row of zeros, for
	// i = N, lets Encode load one slot ahead. Valid when fastOK.
	walk   []uint64
	fastOK bool
	// big[i][j] = C(i, j) for i ≤ N, j ≤ K, for patterns past uint64.
	big [][]*big.Int
}

// Codeword decoding errors.
var (
	// ErrWrongLength reports a codeword whose slot count differs from N.
	ErrWrongLength = errors.New("mppm: codeword length differs from pattern N")
	// ErrWrongWeight reports a codeword whose ON count differs from K; this
	// is how a slot-level detection error usually surfaces.
	ErrWrongWeight = errors.New("mppm: codeword ON count differs from pattern K")
	// ErrRankOverflow reports a codeword that is a valid K-of-N combination
	// but whose rank exceeds the encodable range 2^Bits − 1. Such codewords
	// are never transmitted, so receiving one indicates slot errors.
	ErrRankOverflow = errors.New("mppm: codeword rank outside encodable range")
	// ErrValueRange reports an encode value outside [0, 2^Bits).
	ErrValueRange = errors.New("mppm: value outside encodable range")
)

// codecCache memoizes CodecFor: codecs are immutable after construction
// and the binomial-row tables they precompute are the expensive part of
// building one. Patterns that reach CodecFor come from planning tables,
// so the key space is small.
var codecCache sync.Map // Pattern → *Codec

// CodecFor returns a shared codec for the pattern, building one on first
// use. Like NewCodec it panics on invalid patterns. Safe for concurrent
// use; the returned codec is immutable.
func CodecFor(p Pattern) *Codec {
	if v, ok := codecCache.Load(p); ok {
		return v.(*Codec)
	}
	v, _ := codecCache.LoadOrStore(p, NewCodec(p))
	return v.(*Codec)
}

// NewCodec builds a codec for the pattern. It panics on invalid patterns.
func NewCodec(p Pattern) *Codec {
	if !p.Valid() {
		panic(fmt.Sprintf("mppm: invalid pattern %+v", p))
	}
	c := &Codec{pattern: p, bits: p.Bits()}
	if p.N <= maxFastN {
		c.fastOK = true
		c.walk = make([]uint64, (p.N+1)*(p.K+1))
		for i := 0; i < p.N; i++ {
			for j := 1; j <= p.K; j++ {
				c.walk[i*(p.K+1)+j], _ = BinomialU64(p.N-1-i, j-1)
			}
		}
		return c
	}
	c.big = make([][]*big.Int, p.N+1)
	flat := make([]*big.Int, (p.N+1)*(p.K+1))
	for i := 0; i <= p.N; i++ {
		row := flat[i*(p.K+1) : (i+1)*(p.K+1)]
		for j := 0; j <= p.K; j++ {
			row[j] = Binomial(i, j)
		}
		c.big[i] = row
	}
	return c
}

// Pattern returns the symbol pattern the codec was built for.
func (c *Codec) Pattern() Pattern { return c.pattern }

// Bits returns the number of data bits carried per symbol.
func (c *Codec) Bits() int { return c.bits }

// Fast reports whether the codec can use the uint64 path, i.e. whether
// Encode and Decode are usable: N is at most 61, so every binomial fits
// a uint64, and a symbol carries fewer than 64 bits. Every pattern a
// planning table produces qualifies.
func (c *Codec) Fast() bool { return c.fastOK && c.bits < 64 }

// Encode writes the codeword for value into dst (true = ON slot) and
// returns dst. dst must have length N; if it is nil a fresh slice is
// allocated. Only values in [0, 2^Bits) are encodable.
//
// This is paper Algorithm 1: walking slots from the first, the number of
// completions that put an ON in the current slot is C(remaining−1, onsLeft−1);
// values below that threshold take the ON branch, others subtract it and
// take the OFF branch. The walk table makes the two forced cases (no ON
// left: a threshold of 0; every remaining slot ON: a threshold of 1 over
// a value of 0) ordinary steps, so each slot is a borrow with no
// data-dependent branch. The next slot's threshold for either outcome
// is loaded before the outcome is known and then selected, which keeps
// the table reads off the chain from one slot's decision to the next.
func (c *Codec) Encode(value uint64, dst []bool) ([]bool, error) {
	if !c.Fast() {
		return nil, fmt.Errorf("mppm: pattern %v exceeds the uint64 codec range", c.pattern)
	}
	if c.bits == 0 && value != 0 || c.bits > 0 && value >= 1<<uint(c.bits) {
		return nil, ErrValueRange
	}
	n, k := c.pattern.N, c.pattern.K
	if dst == nil {
		dst = make([]bool, n)
	}
	if len(dst) != n {
		return nil, ErrWrongLength
	}
	// at indexes walk at the current slot's row and ONs left.
	v, walk, at, stride := value, c.walk, k, k+1
	withOn := walk[at]
	for i := range dst {
		at += stride
		// With no ON left, at−1 reads the row before; ON is then
		// impossible, so that value is never selected.
		ifOff, ifOn := walk[at], walk[at-1]
		// v and withOn stay below 2^63, so the borrow of v − withOn is
		// its top bit: 1 exactly when v < withOn, the ON branch. mask
		// spreads it over the word: all ones for ON, zero for OFF.
		mask := -((v - withOn) >> 63)
		v -= withOn &^ mask
		dst[i] = mask != 0
		at += int(mask) // one ON fewer left
		withOn = ifOff ^ (ifOff^ifOn)&mask
	}
	return dst, nil
}

// Decode recovers the value from a codeword. It reverses Algorithm 1
// (paper Algorithm 2) and validates the codeword shape, reporting
// ErrWrongLength, ErrWrongWeight or ErrRankOverflow on corruption. Every
// OFF slot adds its walk entry — 0 after the last ON — so the walk runs
// without a data-dependent branch, and it counts the ONs as it goes.
func (c *Codec) Decode(codeword []bool) (uint64, error) {
	if !c.Fast() {
		return 0, fmt.Errorf("mppm: pattern %v exceeds the uint64 codec range", c.pattern)
	}
	n, k := c.pattern.N, c.pattern.K
	if len(codeword) != n {
		return 0, ErrWrongLength
	}
	// at indexes walk at the slot's row and ONs left. After slot i it is
	// K + (i+1)·(K+1) minus the ONs so far, at least K + (i+1)·K, so a
	// codeword with too many ONs still reads inside the table.
	var v uint64
	walk, at, stride := c.walk, k, k+1
	for _, s := range codeword {
		on := b2u(s)
		v += walk[at] & (on - 1)
		at += stride - int(on)
	}
	if at != n*stride { // K + N·(K+1) − ONs: the weight is K
		return 0, ErrWrongWeight
	}
	if c.bits < 64 && v >= 1<<uint(c.bits) {
		return 0, ErrRankOverflow
	}
	return v, nil
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a move of
// the bool's byte.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
