package amppm

import (
	"fmt"
	"slices"

	"smartvlc/internal/bitio"
	"smartvlc/internal/mppm"
)

// SuperCodec modulates a bit stream as a cyclic schedule of super-symbols:
// m1 S1-symbols followed by m2 S2-symbols (paper Fig. 7), repeating. The
// stream may stop at any symbol boundary once the payload is exhausted —
// only whole symbols are emitted, so the decoder can walk the same
// schedule — which keeps the tail overhead below one symbol instead of one
// whole super-symbol. Constituent symbols are encoded and decoded
// independently with the combinadic codec, so multiplexing leaves the
// per-symbol error rate untouched (paper §4.1.2).
type SuperCodec struct {
	super  SuperSymbol
	c1, c2 *mppm.Codec

	// bitsPerSuper and slotsPerSuper cache SuperSymbol.Bits/Slots: the
	// receiver sizes and decodes every frame through them, so they must
	// not recompute binomials per call.
	bitsPerSuper  int
	slotsPerSuper int
}

// NewSuperCodec builds a codec for the super-symbol. It returns an error
// if a constituent pattern exceeds the uint64 codec range, which cannot
// happen for patterns produced by a Table.
func NewSuperCodec(s SuperSymbol) (*SuperCodec, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("amppm: invalid super-symbol %v", s)
	}
	sc := &SuperCodec{super: s, c1: mppm.CodecFor(s.S1)}
	if !sc.c1.Fast() {
		return nil, fmt.Errorf("amppm: pattern %v too large for streaming codec", s.S1)
	}
	if s.M2 > 0 {
		sc.c2 = mppm.CodecFor(s.S2)
		if !sc.c2.Fast() {
			return nil, fmt.Errorf("amppm: pattern %v too large for streaming codec", s.S2)
		}
	}
	sc.bitsPerSuper = s.Bits()
	sc.slotsPerSuper = s.Slots()
	return sc, nil
}

// Super returns the super-symbol this codec modulates.
func (sc *SuperCodec) Super() SuperSymbol { return sc.super }

// BitsPerSuper returns the data bits carried by one full schedule period.
func (sc *SuperCodec) BitsPerSuper() int { return sc.bitsPerSuper }

// SlotsPerSuper returns the slot length of one full schedule period.
func (sc *SuperCodec) SlotsPerSuper() int { return sc.slotsPerSuper }

// symbolAt returns the codec of the i-th symbol in the cyclic schedule.
func (sc *SuperCodec) symbolAt(i int) *mppm.Codec {
	period := sc.super.M1 + sc.super.M2
	if i%period < sc.super.M1 {
		return sc.c1
	}
	return sc.c2
}

// SlotsForBits returns the exact number of slots the schedule needs to
// carry nbits data bits (the final symbol zero-padded internally).
// Zero-bit anchor symbols inside the schedule are included on the way.
func (sc *SuperCodec) SlotsForBits(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	if sc.BitsPerSuper() == 0 {
		return 0
	}
	slots, bits := 0, 0
	for i := 0; bits < nbits; i++ {
		c := sc.symbolAt(i)
		slots += c.Pattern().N
		bits += c.Bits()
	}
	return slots
}

// SymbolsForBits returns the number of constituent symbols the schedule
// walks to carry nbits data bits — the "symbols decoded" unit of the
// stage profiler. Zero-bit anchor symbols inside the schedule are
// included, matching SlotsForBits.
func (sc *SuperCodec) SymbolsForBits(nbits int) int {
	if nbits <= 0 || sc.BitsPerSuper() == 0 {
		return 0
	}
	symbols, bits := 0, 0
	for i := 0; bits < nbits; i++ {
		bits += sc.symbolAt(i).Bits()
		symbols++
	}
	return symbols
}

// AppendStream encodes all bits remaining in r onto dst, following the
// schedule and stopping at the first symbol boundary that exhausts the
// reader.
func (sc *SuperCodec) AppendStream(dst []bool, r *bitio.Reader) ([]bool, error) {
	if sc.BitsPerSuper() == 0 {
		if r.Remaining() > 0 {
			return nil, fmt.Errorf("amppm: super-symbol %v carries no data", sc.super)
		}
		return dst, nil
	}
	for i := 0; r.Remaining() > 0; i++ {
		c := sc.symbolAt(i)
		v, _, err := r.ReadPadded(c.Bits())
		if err != nil {
			return nil, err
		}
		// Encode sets every slot of the symbol, so the grown tail needs
		// no clearing.
		n := c.Pattern().N
		start := len(dst)
		dst = slices.Grow(dst, n)[:start+n]
		if _, err := c.Encode(v, dst[start:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBits walks the schedule over slots and writes nbits decoded bits
// into w. Corrupt constituent symbols (wrong ON count or out-of-range
// rank) decode as zero bits and are counted in symbolErrors; the frame
// CRC makes the final call, mirroring the paper's receiver.
func (sc *SuperCodec) DecodeBits(slots []bool, nbits int, w *bitio.Writer) (symbolErrors int, err error) {
	if nbits <= 0 {
		return 0, nil
	}
	if sc.BitsPerSuper() == 0 {
		return 0, fmt.Errorf("amppm: super-symbol %v carries no data", sc.super)
	}
	off, bits := 0, 0
	for i := 0; bits < nbits; i++ {
		c := sc.symbolAt(i)
		n := c.Pattern().N
		if off+n > len(slots) {
			return symbolErrors, fmt.Errorf("amppm: slot stream truncated at symbol %d", i)
		}
		v, derr := c.Decode(slots[off : off+n])
		off += n
		if derr != nil {
			symbolErrors++
			v = 0
		}
		if werr := w.WriteBits(v, c.Bits()); werr != nil {
			return symbolErrors, werr
		}
		bits += c.Bits()
	}
	return symbolErrors, nil
}
