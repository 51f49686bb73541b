package photon

import "math"

// invCDF is the integer-domain inverse-CDF table shared by the rail
// Sampler (settled runs) and the grid tables (transition windows).
//
// The draws take x = Uint64()<<11>>11, the 53-bit integer behind the
// uniform u = x/2^53, and invert it against icdf[i] = ⌈cdf[i]·2^53⌉.
// Scaling by 2^53 is exact and x is an integer, so
//
//	x ≥ icdf[i]  ⟺  x ≥ cdf[i]·2^53  ⟺  u ≥ cdf[i],
//
// the float comparison the tables made before: every draw lands on the
// same point. The guide has a power-of-two count of cells indexed by x's
// top bits. A cell whose lowest and highest x invert to the same point
// stores that answer outright; any other cell stores a flagged scan
// start, the lowest x's answer, from which the scan needs one comparison
// or two. The answer of a determined cell is always inside the table
// and above the left edge, so only the scan checks the edges.
type invCDF struct {
	icdf  []uint64 // icdf[i] = ⌈cdf[i]·2^53⌉
	cells []uint16 // answer<<1 when determined, scan start<<1 | 1 when not
	shift uint     // 53 − log2(len(cells))
	below uint64   // ⌈P(X < first point)·2^53⌉: smaller x fall off the left edge
	cHi   float64  // cdf of the last point, where the right-tail walks start
}

// newInvCDF builds the table over the float CDF cdf, where cdf[i] is
// P(X ≤ the table's point i) for consecutive points, and below is the
// probability mass left of the first point, with at least minCells guide
// cells.
func newInvCDF(cdf []float64, below float64, minCells int) invCDF {
	n := len(cdf)
	if n == 0 || n >= 1<<15 {
		panic("photon: inverse-CDF table size out of range")
	}
	t := invCDF{
		icdf:  make([]uint64, n),
		below: uint64(math.Ceil(below * (1 << 53))),
		cHi:   cdf[n-1],
	}
	for i, c := range cdf {
		t.icdf[i] = uint64(math.Ceil(c * (1 << 53)))
	}
	bits := 0
	for 1<<bits < minCells {
		bits++
	}
	t.shift = uint(53 - bits)
	t.cells = make([]uint16, 1<<bits)
	i := 0 // answer of the cell's lowest x: the smallest i with x < icdf[i]
	for j := range t.cells {
		lo := uint64(j) << t.shift
		hi := lo | (1<<t.shift - 1)
		for i < n && lo >= t.icdf[i] {
			i++
		}
		h := i // answer of the cell's highest x
		for h < n && hi >= t.icdf[h] {
			h++
		}
		if h == i && i < n && lo >= t.below {
			t.cells[j] = uint16(i << 1)
		} else {
			t.cells[j] = uint16(i<<1 | 1)
		}
	}
	return t
}

// index inverts x: the smallest i with x < icdf[i], len(icdf) when x is
// past the table and −1 when it is below it.
func (t *invCDF) index(x uint64) int {
	c := t.cells[x>>t.shift]
	i := int(c >> 1)
	if c&1 == 0 {
		return i
	}
	if x < t.below {
		return -1
	}
	for i < len(t.icdf) && x >= t.icdf[i] {
		i++
	}
	return i
}
