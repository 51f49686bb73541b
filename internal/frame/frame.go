package frame

import (
	"fmt"
	"math"
	"sync"
)

// PayloadCodec modulates payload bytes into slots at a fixed dimming level.
// Implementations wrap AMPPM super-symbols or one of the baseline schemes.
type PayloadCodec interface {
	// Level returns the dimming level of the payload waveform; the
	// compensation field is sized from it.
	Level() float64
	// Descriptor returns the 4-byte Pattern field contents that let the
	// receiver reconstruct this codec.
	Descriptor() [PatternBytes]byte
	// PayloadSlots returns the exact number of slots AppendPayload emits
	// for nbytes of data.
	PayloadSlots(nbytes int) int
	// AppendPayload modulates data into slots and appends them to dst.
	AppendPayload(dst []bool, data []byte) ([]bool, error)
	// AppendDecodedPayload demodulates nbytes of data from the beginning
	// of slots into dst's backing array (dst's length is ignored; its
	// capacity is reused) and returns the decoded bytes, so ParseInto can
	// recycle one body buffer per frame. symbolErrors counts constituent
	// symbols that decoded abnormally (the CRC makes the final call on
	// frame validity).
	AppendDecodedPayload(dst []byte, slots []bool, nbytes int) (data []byte, symbolErrors int, err error)
}

// CodecFactory reconstructs a receiver-side PayloadCodec from the Pattern
// field of a frame header.
type CodecFactory func(descriptor [PatternBytes]byte) (PayloadCodec, error)

// CompSlots returns the length and polarity of the compensation run that
// aligns the frame prefix (preamble + header, 50 % duty) with the payload
// dimming level: ON filler for level > 0.5, OFF filler for level < 0.5.
// Both sides compute it from the level alone, so the receiver knows how
// many slots to skip.
func CompSlots(level float64) (n int, on bool) {
	switch {
	case level <= 0 || level >= 1:
		return 0, false
	case level < 0.5:
		return int(math.Round(prefixSlots * (0.5 - level) / level)), false
	case level > 0.5:
		return int(math.Round(prefixSlots * (level - 0.5) / (1 - level))), true
	default:
		return 0, false
	}
}

// SyncSlot returns the value of the sync slot for a payload level: ON
// (rising edge after OFF compensation) for level ≤ 0.5, OFF (falling edge
// after ON compensation) otherwise.
func SyncSlot(level float64) bool { return level <= 0.5 }

// Build assembles a complete frame as a slot waveform:
// preamble, Manchester header, compensation, sync slot, then the payload
// and CRC-16 modulated by the codec. The CRC covers the Length and Pattern
// fields as well as the payload, so header corruption that survives the
// Manchester check is still caught.
func Build(codec PayloadCodec, payload []byte) ([]bool, error) {
	return BuildAppend(nil, codec, payload)
}

// BuildAppend is Build appending onto dst, letting session loops reuse one
// slot buffer across frames (pass buf[:0] to overwrite in place).
func BuildAppend(dst []bool, codec PayloadCodec, payload []byte) ([]bool, error) {
	if len(payload) > MaxPayload {
		return nil, ErrPayloadTooLong
	}
	h := Header{Length: len(payload), Pattern: codec.Descriptor()}

	dst = AppendPreamble(dst)
	dst, err := h.AppendHeader(dst)
	if err != nil {
		return nil, err
	}
	comp, on := CompSlots(codec.Level())
	for i := 0; i < comp; i++ {
		dst = append(dst, on)
	}
	dst = append(dst, SyncSlot(codec.Level()))

	hf := headerFields(h)
	crc := CRC16(hf[:], payload)
	// The payload+CRC concatenation is transient: AppendPayload reads it
	// into slot symbols and does not retain it, so a pooled scratch makes
	// frame building allocation-free on the per-frame session path.
	bp := bodyPool.Get().(*[]byte)
	body := append((*bp)[:0], payload...)
	body = append(body, byte(crc>>8), byte(crc))
	dst, err = codec.AppendPayload(dst, body)
	*bp = body
	bodyPool.Put(bp)
	return dst, err
}

// bodyPool recycles the payload+CRC scratch BuildAppend hands to the
// codec. Pointer-to-slice elements keep Get/Put themselves from
// allocating.
var bodyPool = sync.Pool{New: func() any { s := make([]byte, 0, 256); return &s }}

// headerFields returns the CRC-covered header bytes as a fixed array so
// the checksum call never heap-allocates.
func headerFields(h Header) [2 + PatternBytes]byte {
	return [2 + PatternBytes]byte{byte(h.Length >> 8), byte(h.Length), h.Pattern[0], h.Pattern[1], h.Pattern[2], h.Pattern[3]}
}

// Slots returns the total slot count of a frame carrying nbytes of payload
// with the given codec — useful for throughput accounting and scheduling.
func Slots(codec PayloadCodec, nbytes int) int {
	comp, _ := CompSlots(codec.Level())
	return prefixSlots + comp + 1 + codec.PayloadSlots(nbytes+CRCBytes)
}

// Result is a successfully parsed frame.
type Result struct {
	Header Header
	// Payload is the validated frame payload.
	Payload []byte
	// SlotsConsumed is the total frame length in slots, measured from the
	// first preamble slot.
	SlotsConsumed int
	// SymbolErrors counts payload symbols that decoded abnormally but were
	// repaired or zeroed before the CRC check (always 0 when the CRC
	// passes, in practice).
	SymbolErrors int
}

// Parse decodes one frame that starts at slots[0] (the caller locates the
// preamble). It returns the parsed frame or a descriptive error; on error
// the caller should resume preamble hunting after the failed position.
func Parse(slots []bool, factory CodecFactory) (Result, error) {
	res, _, err := ParseInto(slots, factory, nil)
	return res, err
}

// ParseInto is Parse decoding the frame body into buf's backing array
// (buf's length is ignored; its capacity is reused and grown as needed).
// It returns the possibly regrown buffer so callers can recycle it for
// the next frame: on success Result.Payload aliases the returned buffer,
// so it stays valid only while the caller keeps the buffer to itself.
func ParseInto(slots []bool, factory CodecFactory, buf []byte) (Result, []byte, error) {
	if !PreambleAt(slots) {
		return Result{}, buf, ErrNoPreamble
	}
	pos := PreambleSlots
	if len(slots) < pos+HeaderSlots {
		return Result{}, buf, ErrTruncated
	}
	h, err := ParseHeader(slots[pos : pos+HeaderSlots])
	if err != nil {
		return Result{}, buf, err
	}
	pos += HeaderSlots

	codec, err := factory(h.Pattern)
	if err != nil {
		return Result{}, buf, fmt.Errorf("frame: bad pattern field: %w", err)
	}
	comp, _ := CompSlots(codec.Level())
	pos += comp
	if len(slots) < pos+1 {
		return Result{}, buf, ErrTruncated
	}
	if slots[pos] != SyncSlot(codec.Level()) {
		return Result{}, buf, ErrBadSync
	}
	pos++

	bodyBytes := h.Length + CRCBytes
	need := codec.PayloadSlots(bodyBytes)
	if len(slots) < pos+need {
		return Result{}, buf, ErrTruncated
	}
	body, symErrs, err := codec.AppendDecodedPayload(buf, slots[pos:pos+need], bodyBytes)
	if body != nil {
		buf = body
	}
	if err != nil {
		return Result{}, buf, err
	}
	pos += need

	payload := body[:h.Length]
	wantCRC := uint16(body[h.Length])<<8 | uint16(body[h.Length+1])
	hf := headerFields(h)
	if CRC16(hf[:], payload) != wantCRC {
		return Result{}, buf, ErrCRC
	}
	return Result{Header: h, Payload: payload, SlotsConsumed: pos, SymbolErrors: symErrs}, buf, nil
}

// AppendIdle appends n slots of flicker-safe filler at the given dimming
// level: within each block of up to idleBlock slots, the ON run comes
// first. The block length keeps the modulation frequency above the Type-I
// threshold, and the filler never contains a preamble (a 24-slot
// alternating run), so receivers cannot false-lock on it.
func AppendIdle(dst []bool, level float64, n int) []bool {
	const idleBlock = 100
	for n > 0 {
		b := idleBlock
		if n < b {
			b = n
		}
		on := int(math.Round(level * float64(b)))
		for i := 0; i < b; i++ {
			dst = append(dst, i < on)
		}
		n -= b
	}
	return dst
}
