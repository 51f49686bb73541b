package scheme

import (
	"fmt"
	"math"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/mppm"
)

// MPPM is the compensation-free baseline of the paper (§2.1): a fixed
// symbol length N for all dimming levels, so only the N−1 levels K/N are
// reachable. The paper's evaluation uses N = 20, chosen so the symbol
// error rate stays below the bound.
type MPPM struct {
	// N is the fixed symbol length in slots.
	N int
}

// NewMPPM returns the baseline with the paper's N.
func NewMPPM(n int) (*MPPM, error) {
	if n < 2 || n > mppm.MaxStreamN {
		return nil, fmt.Errorf("scheme: MPPM N=%d outside [2, %d]", n, mppm.MaxStreamN)
	}
	return &MPPM{N: n}, nil
}

// Name implements Scheme.
func (m *MPPM) Name() string { return "MPPM" }

// LevelRange implements Scheme.
func (m *MPPM) LevelRange() (float64, float64) {
	return 1 / float64(m.N), float64(m.N-1) / float64(m.N)
}

// CodecFor implements Scheme. The target level is rounded to the nearest
// supported K/N — the coarse step-wise dimming that motivates AMPPM. A
// level that is not finite has no nearest K/N.
func (m *MPPM) CodecFor(level float64) (frame.PayloadCodec, error) {
	if math.IsNaN(level) || math.IsInf(level, 0) {
		return nil, fmt.Errorf("%w: MPPM level %v", ErrLevelUnsupported, level)
	}
	k := int(math.Round(level * float64(m.N)))
	if k < 1 {
		k = 1
	}
	if k > m.N-1 {
		k = m.N - 1
	}
	return m.codec(k)
}

func (m *MPPM) codec(k int) (frame.PayloadCodec, error) {
	sc, err := amppm.NewSuperCodec(amppm.SuperSymbol{S1: mppm.Pattern{N: m.N, K: k}, M1: 1})
	if err != nil {
		return nil, err
	}
	if sc.BitsPerSuper() == 0 {
		return nil, fmt.Errorf("%w: S(%d,%d) carries no data", ErrLevelUnsupported, m.N, k)
	}
	var d [frame.PatternBytes]byte
	d[0], d[1] = byte(m.N), byte(k)
	return &amppmCodec{sc: sc, desc: d}, nil
}

// Factory implements Scheme.
func (m *MPPM) Factory() frame.CodecFactory {
	return func(d [frame.PatternBytes]byte) (frame.PayloadCodec, error) {
		n, k := int(d[0]), int(d[1])
		if n != m.N || k < 1 || k >= n || d[2] != 0 || d[3] != 0 {
			return nil, fmt.Errorf("scheme: invalid MPPM descriptor %v", d)
		}
		return m.codec(k)
	}
}
