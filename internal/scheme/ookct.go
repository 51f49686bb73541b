package scheme

import (
	"fmt"

	"smartvlc/internal/frame"
	"smartvlc/internal/ookct"
)

// OOKCT is the compensation-based baseline (§2.1): plain on-off keying
// plus compensation runs. It reaches any dimming level but its slot
// efficiency collapses to min(2l, 2(1−l)).
type OOKCT struct {
	// UnitDataSlots is the encoding-unit size (data slots between
	// compensation runs).
	UnitDataSlots int
}

// NewOOKCT returns the baseline with the default unit size.
func NewOOKCT() *OOKCT { return &OOKCT{UnitDataSlots: ookct.DefaultUnitDataSlots} }

// Name implements Scheme.
func (o *OOKCT) Name() string { return "OOK-CT" }

// LevelRange implements Scheme. OOK-CT supports any level in (0,1); the
// range is clamped to the paper's evaluated band for comparability.
func (o *OOKCT) LevelRange() (float64, float64) { return 0.05, 0.95 }

// levelQuantum is the dimming quantization of the descriptor encoding:
// the level is carried as a uint16 in units of 1/10000, so transmitter
// and receiver agree bit-exactly on the compensation layout.
const levelQuantum = 10000

// CodecFor implements Scheme.
func (o *OOKCT) CodecFor(level float64) (frame.PayloadCodec, error) {
	q := int(level*levelQuantum + 0.5)
	return o.codec(q)
}

func (o *OOKCT) codec(q int) (frame.PayloadCodec, error) {
	if q <= 0 || q >= levelQuantum {
		return nil, fmt.Errorf("%w: OOK-CT level quantum %d", ErrLevelUnsupported, q)
	}
	level := float64(q) / levelQuantum
	if _, err := ookct.NewModulator(level, o.UnitDataSlots); err != nil {
		return nil, err
	}
	unit := o.UnitDataSlots
	if unit <= 0 {
		unit = ookct.DefaultUnitDataSlots
	}
	if unit > 255 {
		return nil, fmt.Errorf("scheme: OOK-CT unit %d exceeds descriptor byte", unit)
	}
	var d [frame.PatternBytes]byte
	d[0], d[1] = byte(q>>8), byte(q)
	d[2] = byte(unit)
	return &ookctCodec{level: level, quantum: q, unit: unit, desc: d}, nil
}

// Factory implements Scheme.
func (o *OOKCT) Factory() frame.CodecFactory {
	return func(d [frame.PatternBytes]byte) (frame.PayloadCodec, error) {
		if d[3] != 0 || d[2] == 0 {
			return nil, fmt.Errorf("scheme: invalid OOK-CT descriptor %v", d)
		}
		q := int(d[0])<<8 | int(d[1])
		oo := &OOKCT{UnitDataSlots: int(d[2])}
		return oo.codec(q)
	}
}

type ookctCodec struct {
	level   float64
	quantum int
	unit    int
	desc    [frame.PatternBytes]byte
}

func (c *ookctCodec) Level() float64 { return c.level }

func (c *ookctCodec) Descriptor() [frame.PatternBytes]byte { return c.desc }

func (c *ookctCodec) PayloadSlots(nbytes int) int {
	n, err := ookct.StreamLength(c.level, c.unit, nbytes*8)
	if err != nil {
		return 0
	}
	return n
}

func (c *ookctCodec) AppendPayload(dst []bool, data []byte) ([]bool, error) {
	m, err := ookct.NewModulator(c.level, c.unit)
	if err != nil {
		return nil, err
	}
	return m.AppendBits(dst, data, len(data)*8)
}

func (c *ookctCodec) AppendDecodedPayload(dst []byte, slots []bool, nbytes int) ([]byte, int, error) {
	d, err := ookct.NewDemodulator(c.level, c.unit)
	if err != nil {
		return dst, 0, err
	}
	out, err := d.DecodeBits(slots, nbytes*8)
	return append(dst[:0], out...), 0, err
}
