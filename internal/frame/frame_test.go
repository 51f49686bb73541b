package frame

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fakeCodec is a trivial PayloadCodec for frame-layer tests: each data bit
// becomes one slot (OOK), and Level reports a configurable value.
type fakeCodec struct {
	level float64
	desc  [PatternBytes]byte
}

func (f fakeCodec) Level() float64                 { return f.level }
func (f fakeCodec) Descriptor() [PatternBytes]byte { return f.desc }
func (f fakeCodec) PayloadSlots(nbytes int) int    { return nbytes * 8 }
func (f fakeCodec) AppendPayload(dst []bool, data []byte) ([]bool, error) {
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			dst = append(dst, b>>uint(i)&1 == 1)
		}
	}
	return dst, nil
}
func (f fakeCodec) AppendDecodedPayload(dst []byte, slots []bool, nbytes int) ([]byte, int, error) {
	out := append(dst[:0], make([]byte, nbytes)...)
	for i := 0; i < nbytes*8; i++ {
		if slots[i] {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out, 0, nil
}

func fakeFactory(level float64) CodecFactory {
	return func(d [PatternBytes]byte) (PayloadCodec, error) {
		return fakeCodec{level: level, desc: d}, nil
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#04x want 0x29B1", got)
	}
	// Multi-chunk must equal single-chunk.
	if CRC16([]byte("1234"), []byte("56789")) != 0x29B1 {
		t.Fatal("chunked CRC differs")
	}
}

func TestCRC16DetectsBitFlips(t *testing.T) {
	f := func(data []byte, idx uint16) bool {
		if len(data) == 0 {
			return true
		}
		orig := CRC16(data)
		i := int(idx) % len(data)
		data[i] ^= 1 << (idx % 8)
		return CRC16(data) != orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreambleRoundTrip(t *testing.T) {
	p := AppendPreamble(nil)
	if len(p) != PreambleSlots {
		t.Fatalf("preamble length %d", len(p))
	}
	if !PreambleAt(p) {
		t.Fatal("PreambleAt(own preamble) = false")
	}
	p[3] = !p[3]
	if PreambleAt(p) {
		t.Fatal("corrupted preamble accepted")
	}
	if PreambleAt(p[:10]) {
		t.Fatal("short slice accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Length: 0x1234, Pattern: [4]byte{9, 8, 7, 6}}
	slots, err := h.AppendHeader(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != HeaderSlots {
		t.Fatalf("header slots = %d want %d", len(slots), HeaderSlots)
	}
	got, err := ParseHeader(slots)
	if err != nil || got != h {
		t.Fatalf("ParseHeader = %+v, %v", got, err)
	}
	// Header is exactly 50% duty regardless of content.
	on := 0
	for _, s := range slots {
		if s {
			on++
		}
	}
	if on*2 != len(slots) {
		t.Fatalf("header duty %d/%d", on, len(slots))
	}
}

func TestHeaderManchesterErrorDetection(t *testing.T) {
	h := Header{Length: 5}
	slots, _ := h.AppendHeader(nil)
	slots[0] = slots[1] // make an invalid pair
	if _, err := ParseHeader(slots); !errors.Is(err, ErrBadManchester) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseHeader(slots[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short err = %v", err)
	}
}

func TestHeaderRejectsOversizedLength(t *testing.T) {
	h := Header{Length: MaxPayload + 1}
	if _, err := h.AppendHeader(nil); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompSlots(t *testing.T) {
	// At l = 0.5 no compensation is needed.
	if n, _ := CompSlots(0.5); n != 0 {
		t.Fatalf("CompSlots(0.5) = %d", n)
	}
	// Paper-style check: prefix duty 0.5 blended with comp must hit the
	// target level.
	for _, l := range []float64{0.1, 0.2, 0.35, 0.65, 0.9} {
		n, on := CompSlots(l)
		if (l < 0.5) == on {
			t.Fatalf("level %v: polarity on=%v", l, on)
		}
		onSlots := float64(prefixSlots) / 2
		if on {
			onSlots += float64(n)
		}
		got := onSlots / float64(prefixSlots+n)
		if math.Abs(got-l) > 0.01 {
			t.Fatalf("level %v: prefix+comp duty %v", l, got)
		}
	}
	// Degenerate levels yield no compensation rather than panic.
	if n, _ := CompSlots(0); n != 0 {
		t.Fatal("CompSlots(0) != 0")
	}
	if n, _ := CompSlots(1); n != 0 {
		t.Fatal("CompSlots(1) != 0")
	}
}

func TestCompStaysWithinFlickerCap(t *testing.T) {
	// Over the paper's evaluated dimming range [0.1, 0.9] the compensation
	// run must stay within Nmax = 500 slots (2 ms at 125 kHz < 1/250 Hz).
	for l := 0.1; l <= 0.9; l += 0.001 {
		if n, _ := CompSlots(l); n > 500 {
			t.Fatalf("level %v: comp run %d exceeds 500 slots", l, n)
		}
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, level := range []float64{0.1, 0.3, 0.5, 0.77, 0.9} {
		codec := fakeCodec{level: level, desc: [4]byte{1, 2, 3, 4}}
		payload := make([]byte, 128)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		slots, err := Build(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != Slots(codec, len(payload)) {
			t.Fatalf("level %v: Slots() = %d, actual %d", level, Slots(codec, len(payload)), len(slots))
		}
		res, err := Parse(slots, fakeFactory(level))
		if err != nil {
			t.Fatalf("level %v: Parse: %v", level, err)
		}
		if !bytes.Equal(res.Payload, payload) {
			t.Fatalf("level %v: payload mismatch", level)
		}
		if res.Header.Pattern != codec.desc {
			t.Fatalf("level %v: pattern %v", level, res.Header.Pattern)
		}
		if res.SlotsConsumed != len(slots) {
			t.Fatalf("level %v: consumed %d of %d", level, res.SlotsConsumed, len(slots))
		}
	}
}

func TestParseEmptyPayload(t *testing.T) {
	codec := fakeCodec{level: 0.5}
	slots, err := Build(codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parse(slots, fakeFactory(0.5))
	if err != nil || len(res.Payload) != 0 {
		t.Fatalf("empty payload: %v, %v", res.Payload, err)
	}
}

func TestParseDetectsCorruption(t *testing.T) {
	codec := fakeCodec{level: 0.3}
	payload := []byte("hello, smartvlc")
	slots, err := Build(codec, payload)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("no preamble", func(t *testing.T) {
		bad := append([]bool(nil), slots...)
		bad[0] = !bad[0]
		if _, err := Parse(bad, fakeFactory(0.3)); !errors.Is(err, ErrNoPreamble) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("payload bit flip fails CRC", func(t *testing.T) {
		bad := append([]bool(nil), slots...)
		bad[len(bad)-20] = !bad[len(bad)-20]
		if _, err := Parse(bad, fakeFactory(0.3)); !errors.Is(err, ErrCRC) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("sync slot flip", func(t *testing.T) {
		bad := append([]bool(nil), slots...)
		comp, _ := CompSlots(0.3)
		syncIdx := PreambleSlots + HeaderSlots + comp
		bad[syncIdx] = !bad[syncIdx]
		if _, err := Parse(bad, fakeFactory(0.3)); !errors.Is(err, ErrBadSync) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Parse(slots[:len(slots)-4], fakeFactory(0.3)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("length field corruption fails CRC", func(t *testing.T) {
		// Flip a Manchester PAIR in the length field so the Manchester
		// check passes but the length changes: swap both slots of bit 15.
		bad := append([]bool(nil), slots...)
		bad[PreambleSlots], bad[PreambleSlots+1] = bad[PreambleSlots+1], bad[PreambleSlots]
		_, err := Parse(bad, fakeFactory(0.3))
		if err == nil {
			t.Fatal("corrupted length accepted")
		}
	})
}

func TestHeaderFieldsCoveredByCRC(t *testing.T) {
	// Corrupting the Pattern field (a full Manchester pair, so the pair
	// check passes) must fail the frame even though the payload is intact.
	codec := fakeCodec{level: 0.5, desc: [4]byte{0, 0, 0, 0}}
	slots, err := Build(codec, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	patternBit := PreambleSlots + LengthBytes*16 // first pattern bit pair
	slots[patternBit], slots[patternBit+1] = !slots[patternBit], !slots[patternBit+1]
	if _, err := Parse(slots, fakeFactory(0.5)); err == nil {
		t.Fatal("pattern corruption accepted")
	}
}

func TestBuildRejectsOversizedPayload(t *testing.T) {
	codec := fakeCodec{level: 0.5}
	if _, err := Build(codec, make([]byte, MaxPayload+1)); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendIdle(t *testing.T) {
	for _, level := range []float64{0.1, 0.5, 0.9} {
		slots := AppendIdle(nil, level, 1000)
		if len(slots) != 1000 {
			t.Fatalf("idle length %d", len(slots))
		}
		on := 0
		for _, s := range slots {
			if s {
				on++
			}
		}
		if math.Abs(float64(on)/1000-level) > 0.01 {
			t.Fatalf("idle duty %v at level %v", float64(on)/1000, level)
		}
		// Idle filler must never contain a preamble.
		for i := 0; i+PreambleSlots <= len(slots); i++ {
			if PreambleAt(slots[i:]) {
				t.Fatalf("level %v: preamble found in idle at %d", level, i)
			}
		}
	}
}

func TestFrameOverheadSmallForBigPayload(t *testing.T) {
	// Sanity check on overhead accounting used in the evaluation: for a
	// 128-byte payload at l=0.5 the prefix+sync overhead is
	// 120+1 slots against 130*8 payload slots (fake codec) ≈ 10 %.
	codec := fakeCodec{level: 0.5}
	total := Slots(codec, 128)
	payloadSlots := codec.PayloadSlots(128 + CRCBytes)
	overhead := float64(total-payloadSlots) / float64(total)
	if overhead > 0.11 {
		t.Fatalf("overhead %v too large", overhead)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, levelRaw uint16, n uint16) bool {
		level := 0.1 + float64(levelRaw)/65535*0.8
		rng := rand.New(rand.NewPCG(seed, 1))
		payload := make([]byte, int(n%512))
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		codec := fakeCodec{level: level}
		slots, err := Build(codec, payload)
		if err != nil {
			return false
		}
		res, err := Parse(slots, fakeFactory(level))
		return err == nil && bytes.Equal(res.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestErrorInjectionNeverFalselyAccepts flips k random slots of a valid
// frame and requires the parser to either reject the frame or return the
// original payload — a CRC collision with few flips would be a bug in the
// slot accounting, not bad luck.
func TestErrorInjectionNeverFalselyAccepts(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	codec := fakeCodec{level: 0.4}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	slots, err := Build(codec, payload)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3000; trial++ {
		bad := append([]bool(nil), slots...)
		k := 1 + int(rng.Uint64()%4)
		for j := 0; j < k; j++ {
			i := int(rng.Uint64() % uint64(len(bad)))
			bad[i] = !bad[i]
		}
		res, err := Parse(bad, fakeFactory(0.4))
		if err != nil {
			continue // rejected: fine
		}
		if !bytes.Equal(res.Payload, payload) {
			t.Fatalf("trial %d: corrupted frame accepted with wrong payload", trial)
		}
	}
}
