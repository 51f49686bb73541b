package scheme

import (
	"fmt"

	"smartvlc/internal/bitio"
	"smartvlc/internal/frame"
	"smartvlc/internal/oppm"
)

// OPPM is the overlapping-PPM baseline from the paper's related work
// (reference [8]): compensation-free like MPPM, but strictly fewer bits
// per symbol at every level — included for the ablation benches.
type OPPM struct {
	// SymbolSlots is the fixed symbol length N.
	SymbolSlots int
}

// NewOPPM returns the baseline with symbol length n.
func NewOPPM(n int) (*OPPM, error) {
	if n < 4 || n > 255 {
		return nil, fmt.Errorf("scheme: OPPM N=%d outside [4, 255]", n)
	}
	return &OPPM{SymbolSlots: n}, nil
}

// Name implements Scheme.
func (o *OPPM) Name() string { return "OPPM" }

// LevelRange implements Scheme.
func (o *OPPM) LevelRange() (float64, float64) {
	n := float64(o.SymbolSlots)
	return 1 / n, (n - 1) / n
}

// CodecFor implements Scheme.
func (o *OPPM) CodecFor(level float64) (frame.PayloadCodec, error) {
	c, err := oppm.ForLevel(o.SymbolSlots, level)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLevelUnsupported, err)
	}
	return o.wrap(c)
}

func (o *OPPM) wrap(c *oppm.Codec) (frame.PayloadCodec, error) {
	if c.Bits() == 0 {
		return nil, fmt.Errorf("%w: OPPM(%d,%d) carries no data", ErrLevelUnsupported, c.SymbolSlots(), c.PulseWidth())
	}
	var d [frame.PatternBytes]byte
	d[0], d[1] = byte(c.SymbolSlots()), byte(c.PulseWidth())
	return &oppmCodec{c: c, desc: d}, nil
}

// Factory implements Scheme.
func (o *OPPM) Factory() frame.CodecFactory {
	return func(d [frame.PatternBytes]byte) (frame.PayloadCodec, error) {
		n, w := int(d[0]), int(d[1])
		if n != o.SymbolSlots || d[2] != 0 || d[3] != 0 {
			return nil, fmt.Errorf("scheme: invalid OPPM descriptor %v", d)
		}
		c, err := oppm.NewCodec(n, w)
		if err != nil {
			return nil, err
		}
		return o.wrap(c)
	}
}

type oppmCodec struct {
	c    *oppm.Codec
	desc [frame.PatternBytes]byte
}

func (c *oppmCodec) Level() float64 { return c.c.DimmingLevel() }

func (c *oppmCodec) Descriptor() [frame.PatternBytes]byte { return c.desc }

func (c *oppmCodec) PayloadSlots(nbytes int) int { return c.c.SlotsForBits(nbytes * 8) }

func (c *oppmCodec) AppendPayload(dst []bool, data []byte) ([]bool, error) {
	return c.c.AppendStream(dst, bitio.NewReader(data))
}

func (c *oppmCodec) AppendDecodedPayload(dst []byte, slots []bool, nbytes int) ([]byte, int, error) {
	w := bitio.NewWriter()
	se, err := c.c.DecodeBits(slots, nbytes*8, w)
	if err != nil {
		return dst, se, err
	}
	return append(dst[:0], w.Bytes()[:nbytes]...), se, nil
}
