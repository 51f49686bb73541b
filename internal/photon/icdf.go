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

// newInvCDF builds the table over consecutive points with at least
// minCells guide cells. pmf[i] holds the float64 bits of point i's mass
// and below is the mass left of the first point; the running sum
// cdf[i] = below + pmf[0] + … + pmf[i], accumulated in that order, is
// the float CDF the table inverts. newInvCDF turns pmf into the icdf
// column in place and keeps it, so the float CDF is never stored.
//
// The guide is filled in one pass over the points. The cells whose
// lowest x lies in [icdf[i−1], icdf[i]) all start at point i: every
// one of them but the last ends below icdf[i] and is determined, and
// the last is determined only if icdf[i] starts the next cell. Cells
// left of below stay scan starts, since their x may fall off the table.
func newInvCDF(pmf []uint64, below float64, minCells int) invCDF {
	n := len(pmf)
	if n == 0 || n >= 1<<15 {
		panic("photon: inverse-CDF table size out of range")
	}
	t := invCDF{icdf: pmf, below: uint64(math.Ceil(below * (1 << 53)))}
	c := below
	for i, p := range pmf {
		c += math.Float64frombits(p)
		t.icdf[i] = uint64(math.Ceil(c * (1 << 53)))
	}
	t.cHi = c
	bits := 0
	for 1<<bits < minCells {
		bits++
	}
	t.shift = uint(53 - bits)
	t.cells = make([]uint16, 1<<bits)
	j := 0 // the first cell not yet filled
	for i, v := range t.icdf {
		if v == 0 {
			continue
		}
		// Cells up to the one holding x = v−1 start at point i.
		end := min(int((v-1)>>t.shift)+1, len(t.cells))
		for ; j < end; j++ {
			lo := uint64(j) << t.shift
			if hi := lo | (1<<t.shift - 1); hi < v && lo >= t.below {
				t.cells[j] = uint16(i << 1)
			} else {
				t.cells[j] = uint16(i<<1 | 1)
			}
		}
	}
	for ; j < len(t.cells); j++ {
		t.cells[j] = uint16(n<<1 | 1) // past the table: the tail walk
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
