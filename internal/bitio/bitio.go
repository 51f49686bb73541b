// Package bitio provides MSB-first bit readers and writers over byte
// slices. The VLC codecs consume payload bytes in symbol-sized bit groups
// (up to 63 bits per MPPM symbol), and the framer packs header fields at
// bit granularity; both use this package.
package bitio

import (
	"errors"
	"fmt"
)

// ErrShortRead reports an attempt to read past the end of the stream.
var ErrShortRead = errors.New("bitio: read past end of stream")

// Reader reads bit groups MSB-first from a byte slice.
type Reader struct {
	data []byte
	pos  int // bit position from the start
	n    int // total bits available
}

// NewReader returns a Reader over all 8·len(data) bits of data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data, n: len(data) * 8}
}

// NewReaderBits returns a Reader over the first nbits bits of data.
// It panics if nbits exceeds the data length, as that is programmer error.
func NewReaderBits(data []byte, nbits int) *Reader {
	if nbits < 0 || nbits > len(data)*8 {
		panic(fmt.Sprintf("bitio: nbits %d outside data length %d bits", nbits, len(data)*8))
	}
	return &Reader{data: data, n: nbits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.n - r.pos }

// ReadBits reads the next n bits (0 ≤ n ≤ 64) as an unsigned integer with
// the first bit read in the most significant position.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: invalid read size %d", n)
	}
	if r.Remaining() < n {
		return 0, ErrShortRead
	}
	// Move one byte fragment per step: the rest of the current byte, or
	// the n bits still wanted if fewer.
	var v uint64
	pos := r.pos
	for n > 0 {
		off := pos & 7
		take := min(8-off, n)
		v = v<<take | uint64(r.data[pos>>3]<<off>>(8-take))
		pos += take
		n -= take
	}
	r.pos = pos
	return v, nil
}

// ReadPadded reads up to n bits; if fewer remain, the value is zero-padded
// on the right (least significant side) as if the stream continued with
// zeros. It returns the number of real bits consumed. Reading from an
// exhausted stream returns (0, 0, nil).
func (r *Reader) ReadPadded(n int) (v uint64, consumed int, err error) {
	if n < 0 || n > 64 {
		return 0, 0, fmt.Errorf("bitio: invalid read size %d", n)
	}
	consumed = n
	if rem := r.Remaining(); rem < n {
		consumed = rem
	}
	v, err = r.ReadBits(consumed)
	if err != nil {
		return 0, 0, err
	}
	v <<= uint(n - consumed)
	return v, consumed, nil
}

// Writer accumulates bits MSB-first into a byte slice.
type Writer struct {
	data []byte
	n    int // bits written
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Reset re-initializes the writer to accumulate into buf's backing array
// from the start (buf's length is ignored). With enough capacity the
// writer never allocates — the allocation-free decode paths recycle one
// buffer per frame slot this way. Reset(nil) drops the buffer reference.
func (w *Writer) Reset(buf []byte) {
	w.data = buf[:0]
	w.n = 0
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// WriteBits appends the low n bits of v, most significant first.
func (w *Writer) WriteBits(v uint64, n int) error {
	if n < 0 || n > 64 {
		return fmt.Errorf("bitio: invalid write size %d", n)
	}
	// Move one byte fragment per step: as many of the leading bits still
	// to write as fit in the current byte. A fresh byte is appended as
	// zero, which also clears a recycled buffer's old contents.
	for n > 0 {
		off := w.n & 7
		if off == 0 {
			w.data = append(w.data, 0)
		}
		take := min(8-off, n)
		n -= take
		w.data[len(w.data)-1] |= byte(v>>n) & (1<<take - 1) << (8 - off - take)
		w.n += take
	}
	return nil
}

// Bytes returns the written bits as a byte slice, zero-padded in the final
// byte. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.data }
