package bitio

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestReadBitsBasic(t *testing.T) {
	r := NewReader([]byte{0b1011_0010, 0b0100_0001})
	got, err := r.ReadBits(3)
	if err != nil || got != 0b101 {
		t.Fatalf("ReadBits(3) = %b, %v", got, err)
	}
	got, err = r.ReadBits(8)
	if err != nil || got != 0b1_0010_010 {
		t.Fatalf("ReadBits(8) = %b, %v", got, err)
	}
	if r.Remaining() != 5 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	got, err = r.ReadBits(5)
	if err != nil || got != 0b0_0001 {
		t.Fatalf("ReadBits(5) = %b, %v", got, err)
	}
	if _, err := r.ReadBits(1); err != ErrShortRead {
		t.Fatalf("expected ErrShortRead, got %v", err)
	}
}

func TestReadBitsZeroAndBounds(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("ReadBits(65) should fail")
	}
	if _, err := r.ReadBits(-1); err == nil {
		t.Fatal("ReadBits(-1) should fail")
	}
}

func TestReadBits64(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67}
	r := NewReader(data)
	v, err := r.ReadBits(64)
	if err != nil || v != 0xDEADBEEF01234567 {
		t.Fatalf("ReadBits(64) = %x, %v", v, err)
	}
}

func TestNewReaderBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReaderBits([]byte{0}, 9)
}

func TestReadPadded(t *testing.T) {
	r := NewReaderBits([]byte{0b1100_0000}, 3) // bits: 110
	v, consumed, err := r.ReadPadded(5)
	if err != nil || consumed != 3 || v != 0b11000 {
		t.Fatalf("ReadPadded = %b, %d, %v", v, consumed, err)
	}
	v, consumed, err = r.ReadPadded(4)
	if err != nil || consumed != 0 || v != 0 {
		t.Fatalf("exhausted ReadPadded = %b, %d, %v", v, consumed, err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0xFF, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0, 2); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 13 {
		t.Fatalf("Len = %d", w.Len())
	}
	r := NewReaderBits(w.Bytes(), w.Len())
	for _, c := range []struct {
		n    int
		want uint64
	}{{3, 0b101}, {8, 0xFF}, {2, 0}} {
		got, err := r.ReadBits(c.n)
		if err != nil || got != c.want {
			t.Fatalf("read back %d bits = %b, %v want %b", c.n, got, err, c.want)
		}
	}
}

func TestWriterInvalidSize(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0, 65); err == nil {
		t.Fatal("WriteBits(65) should fail")
	}
	if err := w.WriteBits(0, -1); err == nil {
		t.Fatal("WriteBits(-1) should fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizes []uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		w := NewWriter()
		var vals []uint64
		var ns []int
		for _, s := range sizes {
			n := int(s % 65)
			v := rng.Uint64()
			if n < 64 {
				v &= 1<<uint(n) - 1
			}
			if err := w.WriteBits(v, n); err != nil {
				return false
			}
			vals = append(vals, v)
			ns = append(ns, n)
		}
		r := NewReaderBits(w.Bytes(), w.Len())
		for i, n := range ns {
			got, err := r.ReadBits(n)
			if err != nil || got != vals[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBytesPadding(t *testing.T) {
	w := NewWriter()
	_ = w.WriteBits(1, 1)
	if !bytes.Equal(w.Bytes(), []byte{0x80}) {
		t.Fatalf("Bytes = %x", w.Bytes())
	}
}

// bitAt is the per-bit oracle: bit i (MSB-first) of v's low n bits.
func bitAt(v uint64, n, i int) byte { return byte(v >> uint(n-1-i) & 1) }

// packBits packs one-bit entries MSB-first, zero-padding the last byte.
func packBits(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		out[i/8] |= b << (7 - uint(i%8))
	}
	return out
}

// TestWordIOMatchesPerBit drives the fragment-moving WriteBits, ReadBits
// and ReadPadded with random sequences of sizes 0..64 and checks every
// result against a stream kept one bit at a time. Each round writes into
// a recycled buffer refilled with garbage through Reset, reads back
// over the whole stream or a prefix of it, and ends with reads past its
// end.
func TestWordIOMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12))
	w := NewWriter()
	recycled := make([]byte, 0, 160)
	for round := 0; round < 5000; round++ {
		buf := recycled[:cap(recycled)]
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		w.Reset(buf[:rng.IntN(8)])
		var bits []byte
		for op := rng.IntN(20); op > 0; op-- {
			n, v := rng.IntN(65), rng.Uint64()
			if err := w.WriteBits(v, n); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				bits = append(bits, bitAt(v, n, i))
			}
		}
		if w.Len() != len(bits) || !bytes.Equal(w.Bytes(), packBits(bits)) {
			t.Fatalf("round %d: wrote %d bits %x, per-bit %d bits %x", round, w.Len(), w.Bytes(), len(bits), packBits(bits))
		}

		nbits := len(bits)
		if rng.IntN(2) == 0 {
			nbits = rng.IntN(nbits + 1)
		}
		r := NewReaderBits(w.Bytes(), nbits)
		for pos := 0; pos < nbits; {
			n := rng.IntN(65)
			var want uint64
			for i := 0; i < n; i++ {
				want <<= 1
				if pos+i < nbits {
					want |= uint64(bits[pos+i])
				}
			}
			avail := min(n, nbits-pos)
			if rng.IntN(2) == 0 {
				got, err := r.ReadBits(n)
				if n > nbits-pos {
					if err != ErrShortRead || r.Remaining() != nbits-pos {
						t.Fatalf("round %d: ReadBits(%d) with %d left: %v, %d left after", round, n, nbits-pos, err, r.Remaining())
					}
					continue
				}
				if err != nil || got != want {
					t.Fatalf("round %d: ReadBits(%d) at %d = %x, %v; per-bit %x", round, n, pos, got, err, want)
				}
			} else {
				got, consumed, err := r.ReadPadded(n)
				if err != nil || got != want || consumed != avail {
					t.Fatalf("round %d: ReadPadded(%d) at %d = %x, %d, %v; per-bit %x, %d", round, n, pos, got, consumed, err, want, avail)
				}
			}
			pos += avail
		}
		n := 1 + rng.IntN(64)
		if v, consumed, err := r.ReadPadded(n); v != 0 || consumed != 0 || err != nil {
			t.Fatalf("round %d: ReadPadded(%d) at the end = %x, %d, %v", round, n, v, consumed, err)
		}
		if _, err := r.ReadBits(n); err != ErrShortRead {
			t.Fatalf("round %d: ReadBits(%d) at the end: %v", round, n, err)
		}
		recycled = w.Bytes()[:0]
	}
}
