package scheme

import (
	"fmt"

	"smartvlc/internal/frame"
	"smartvlc/internal/vppm"
)

// VPPM is the IEEE 802.15.7 baseline: binary PPM with dimming in the
// pulse width. One bit per symbol makes it strictly slower than MPPM
// (paper footnote 5), so the paper compares against it only analytically;
// it is included here for the ablation benches.
type VPPM struct {
	// SymbolSlots is the symbol length in slots.
	SymbolSlots int
}

// NewVPPM returns the baseline with the default symbol length.
func NewVPPM() *VPPM { return &VPPM{SymbolSlots: vppm.DefaultSymbolSlots} }

// Name implements Scheme.
func (v *VPPM) Name() string { return "VPPM" }

// LevelRange implements Scheme.
func (v *VPPM) LevelRange() (float64, float64) {
	n := float64(v.SymbolSlots)
	return 1 / n, (n - 1) / n
}

// CodecFor implements Scheme.
func (v *VPPM) CodecFor(level float64) (frame.PayloadCodec, error) {
	c, err := vppm.NewCodec(v.SymbolSlots, level)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLevelUnsupported, err)
	}
	return v.wrap(c)
}

func (v *VPPM) wrap(c *vppm.Codec) (frame.PayloadCodec, error) {
	if c.SymbolSlots() > 255 || c.PulseWidth() > 255 {
		return nil, fmt.Errorf("scheme: VPPM symbol %d too long for descriptor", c.SymbolSlots())
	}
	var d [frame.PatternBytes]byte
	d[0], d[1] = byte(c.SymbolSlots()), byte(c.PulseWidth())
	return &vppmCodec{c: c, desc: d}, nil
}

// Factory implements Scheme.
func (v *VPPM) Factory() frame.CodecFactory {
	return func(d [frame.PatternBytes]byte) (frame.PayloadCodec, error) {
		n, w := int(d[0]), int(d[1])
		if n != v.SymbolSlots || w < 1 || w >= n || d[2] != 0 || d[3] != 0 {
			return nil, fmt.Errorf("scheme: invalid VPPM descriptor %v", d)
		}
		c, err := vppm.NewCodec(n, float64(w)/float64(n))
		if err != nil {
			return nil, err
		}
		return v.wrap(c)
	}
}

type vppmCodec struct {
	c    *vppm.Codec
	desc [frame.PatternBytes]byte
}

func (c *vppmCodec) Level() float64 { return c.c.DimmingLevel() }

func (c *vppmCodec) Descriptor() [frame.PatternBytes]byte { return c.desc }

func (c *vppmCodec) PayloadSlots(nbytes int) int {
	return nbytes * 8 * c.c.SymbolSlots()
}

func (c *vppmCodec) AppendPayload(dst []bool, data []byte) ([]bool, error) {
	return c.c.AppendBits(dst, data, len(data)*8)
}

func (c *vppmCodec) AppendDecodedPayload(dst []byte, slots []bool, nbytes int) ([]byte, int, error) {
	out, err := c.c.DecodeBits(slots, nbytes*8)
	return append(dst[:0], out...), 0, err
}
