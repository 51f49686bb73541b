package mppm

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripExhaustiveSmall(t *testing.T) {
	// For small patterns, check the full encodable range is a bijection.
	for _, p := range []Pattern{{5, 2}, {8, 4}, {10, 3}, {10, 5}, {12, 6}} {
		c := NewCodec(p)
		seen := map[string]bool{}
		for v := uint64(0); v < 1<<uint(c.Bits()); v++ {
			cw, err := c.Encode(v, nil)
			if err != nil {
				t.Fatalf("%v Encode(%d): %v", p, v, err)
			}
			key := cwKey(cw)
			if seen[key] {
				t.Fatalf("%v: codeword for %d already used", p, v)
			}
			seen[key] = true
			ons := 0
			for _, s := range cw {
				if s {
					ons++
				}
			}
			if ons != p.K {
				t.Fatalf("%v Encode(%d): %d ONs, want %d", p, v, ons, p.K)
			}
			got, err := c.Decode(cw)
			if err != nil || got != v {
				t.Fatalf("%v Decode(Encode(%d)) = %d, %v", p, v, got, err)
			}
		}
	}
}

func cwKey(cw []bool) string {
	b := make([]byte, len(cw))
	for i, s := range cw {
		if s {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8, vRaw uint64) bool {
		n := int(nRaw%50) + 2
		k := int(kRaw)%(n-1) + 1
		c := NewCodec(Pattern{n, k})
		if c.Bits() == 0 {
			return true
		}
		v := vRaw % (1 << uint(c.Bits()))
		cw, err := c.Encode(v, nil)
		if err != nil {
			return false
		}
		got, err := c.Decode(cw)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCodecOrderPreserving(t *testing.T) {
	// The combinadic mapping is order-preserving over codewords compared
	// lexicographically with ON < OFF at each slot; simply check that
	// decoding is strictly monotone over sequentially encoded values.
	c := NewCodec(Pattern{12, 5})
	var prev []bool
	for v := uint64(0); v < 1<<uint(c.Bits()); v++ {
		cw, _ := c.Encode(v, nil)
		if prev != nil && !lexLess(prev, cw) {
			t.Fatalf("codewords not in lexicographic order at v=%d", v)
		}
		prev = append(prev[:0], cw...)
	}
}

func lexLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] && !b[i] // ON sorts before OFF
		}
	}
	return false
}

func TestCodecRejectsBadValues(t *testing.T) {
	c := NewCodec(Pattern{10, 5})
	if _, err := c.Encode(1<<uint(c.Bits()), nil); err != ErrValueRange {
		t.Fatalf("want ErrValueRange, got %v", err)
	}
	zero := NewCodec(Pattern{10, 0})
	if _, err := zero.Encode(1, nil); err != ErrValueRange {
		t.Fatalf("zero-bit pattern must only encode 0, got %v", err)
	}
	if cw, err := zero.Encode(0, nil); err != nil || len(cw) != 10 {
		t.Fatalf("zero-bit pattern encode: %v %v", cw, err)
	}
}

func TestCodecDetectsCorruption(t *testing.T) {
	c := NewCodec(Pattern{10, 5})
	cw, _ := c.Encode(37, nil)

	short := cw[:9]
	if _, err := c.Decode(short); err != ErrWrongLength {
		t.Fatalf("want ErrWrongLength, got %v", err)
	}

	flipped := append([]bool(nil), cw...)
	flipped[0] = !flipped[0]
	if _, err := c.Decode(flipped); err != ErrWrongWeight {
		t.Fatalf("want ErrWrongWeight, got %v", err)
	}
}

func TestCodecRankOverflowDetected(t *testing.T) {
	// C(10,5)=252, bits=7 so ranks 128..251 are never produced by Encode.
	// The lexicographically largest codeword (all ONs at the end) has rank
	// 251 and must be rejected.
	c := NewCodec(Pattern{10, 5})
	cw := make([]bool, 10)
	for i := 5; i < 10; i++ {
		cw[i] = true
	}
	if _, err := c.Decode(cw); err != ErrRankOverflow {
		t.Fatalf("want ErrRankOverflow, got %v", err)
	}
}

func TestCodecEncodeIntoProvidedBuffer(t *testing.T) {
	c := NewCodec(Pattern{10, 5})
	buf := make([]bool, 10)
	out, err := c.Encode(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("Encode should reuse the provided buffer")
	}
	if _, err := c.Encode(3, make([]bool, 9)); err != ErrWrongLength {
		t.Fatalf("want ErrWrongLength, got %v", err)
	}
}

func TestCodecBigRoundTrip(t *testing.T) {
	// N=120 exceeds the uint64 fast path: C(120,60) has ~115 bits.
	p := Pattern{120, 60}
	c := NewCodec(p)
	if c.Fast() {
		t.Fatal("pattern should not be fast")
	}
	if c.Bits() <= 64 {
		t.Fatalf("expected >64 bits, got %d", c.Bits())
	}
	rng := rand.New(rand.NewPCG(1, 2))
	limit := new(big.Int).Lsh(big.NewInt(1), uint(c.Bits()))
	raw := make([]byte, (c.Bits()+15)/8)
	for i := 0; i < 50; i++ {
		for j := range raw {
			raw[j] = byte(rng.Uint64())
		}
		v := new(big.Int).SetBytes(raw)
		v.Mod(v, limit)
		cw, err := c.EncodeBig(v, nil)
		if err != nil {
			t.Fatalf("EncodeBig: %v", err)
		}
		got, err := c.DecodeBig(cw)
		if err != nil || got.Cmp(v) != 0 {
			t.Fatalf("DecodeBig = %v, %v; want %v", got, err, v)
		}
	}
}

func TestCodecBigMatchesFastPath(t *testing.T) {
	// For a fast-capable pattern, the big path must agree with the fast one.
	p := Pattern{18, 9}
	c := NewCodec(p)
	for v := uint64(0); v < 1000; v++ {
		fast, err := c.Encode(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		big1, err := c.EncodeBig(new(big.Int).SetUint64(v), nil)
		if err != nil {
			t.Fatal(err)
		}
		if cwKey(fast) != cwKey(big1) {
			t.Fatalf("fast and big encode differ at %d", v)
		}
		gv, err := c.DecodeBig(big1)
		if err != nil || gv.Uint64() != v {
			t.Fatalf("DecodeBig = %v, %v", gv, err)
		}
	}
}

func TestNewCodecPanicsOnInvalidPattern(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCodec(Pattern{0, 0})
}

func BenchmarkCodecEncodeN20(b *testing.B) {
	c := NewCodec(Pattern{20, 10})
	buf := make([]bool, 20)
	mask := uint64(1)<<uint(c.Bits()) - 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(uint64(i)&mask, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeN20(b *testing.B) {
	c := NewCodec(Pattern{20, 10})
	cw, _ := c.Encode(12345, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

// EncodeBig is Encode for patterns whose rank space exceeds uint64, the
// big-integer form of Algorithm 1 the tests check the fast path against.
// value is not modified.
func (c *Codec) EncodeBig(value *big.Int, dst []bool) ([]bool, error) {
	if value.Sign() < 0 || value.BitLen() > c.bits {
		return nil, ErrValueRange
	}
	if c.Fast() {
		return c.Encode(value.Uint64(), dst)
	}
	n, k := c.pattern.N, c.pattern.K
	if dst == nil {
		dst = make([]bool, n)
	}
	if len(dst) != n {
		return nil, ErrWrongLength
	}
	v := new(big.Int).Set(value)
	onsLeft := k
	for i := 0; i < n; i++ {
		remaining := n - i - 1
		if onsLeft == 0 {
			dst[i] = false
			continue
		}
		if remaining < onsLeft {
			dst[i] = true
			onsLeft--
			continue
		}
		withOn := c.big[remaining][onsLeft-1]
		if v.Cmp(withOn) < 0 {
			dst[i] = true
			onsLeft--
		} else {
			dst[i] = false
			v.Sub(v, withOn)
		}
	}
	return dst, nil
}

// DecodeBig is Decode for patterns whose rank space exceeds uint64.
func (c *Codec) DecodeBig(codeword []bool) (*big.Int, error) {
	if c.Fast() {
		v, err := c.Decode(codeword)
		if err != nil {
			return nil, err
		}
		return new(big.Int).SetUint64(v), nil
	}
	n, k := c.pattern.N, c.pattern.K
	if len(codeword) != n {
		return nil, ErrWrongLength
	}
	ons := 0
	for _, s := range codeword {
		if s {
			ons++
		}
	}
	if ons != k {
		return nil, ErrWrongWeight
	}
	v := new(big.Int)
	onsLeft := k
	for i := 0; i < n && onsLeft > 0; i++ {
		remaining := n - i - 1
		if codeword[i] {
			onsLeft--
			continue
		}
		if remaining >= onsLeft {
			v.Add(v, c.big[remaining][onsLeft-1])
		}
	}
	if v.BitLen() > c.bits {
		return nil, ErrRankOverflow
	}
	return v, nil
}
