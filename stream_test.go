package smartvlc

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	sys := newSystem(t)
	st, err := sys.OpenStream(Aligned(3, 0), 8000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	n, err := st.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted data")
	}
	stats := st.Stats()
	if stats.FramesSent < 65 || stats.DeliveredBytes != int64(len(data)) {
		t.Fatalf("stats: frames=%d delivered=%d", stats.FramesSent, stats.DeliveredBytes)
	}
	if stats.AirtimeSlots <= 0 || st.AirtimeSeconds() <= 0 {
		t.Fatal("no air time accounted")
	}
	var chunks int64
	for _, n := range stats.ChunkAttempts {
		chunks += n
	}
	if want := int64(len(data)) / int64(st.ChunkBytes); chunks < want {
		t.Fatalf("attempt histogram covers %d chunks, want ≥%d", chunks, want)
	}
}

func TestStreamIoCopy(t *testing.T) {
	sys := newSystem(t)
	st, err := sys.OpenStream(Aligned(2.5, 0), 5000, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("visible light networking "), 100)
	if _, err := io.Copy(st, bytes.NewReader(msg)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := io.Copy(&out, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), msg) {
		t.Fatal("io.Copy round trip failed")
	}
}

func TestStreamMidStreamDimmingChange(t *testing.T) {
	sys := newSystem(t)
	st, err := sys.OpenStream(Aligned(3, 0), 8000, 0.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	part1 := bytes.Repeat([]byte{0x11}, 500)
	part2 := bytes.Repeat([]byte{0x22}, 500)
	if _, err := st.Write(part1); err != nil {
		t.Fatal(err)
	}
	if err := st.SetLevel(0.1); err != nil {
		t.Fatal(err)
	}
	if st.Level() != 0.1 {
		t.Fatal("level not applied")
	}
	if _, err := st.Write(part2); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(st)
	if !bytes.Equal(got, append(append([]byte{}, part1...), part2...)) {
		t.Fatal("mid-stream dimming change corrupted data")
	}
}

func TestStreamValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.OpenStream(Geometry{}, 100, 0.5, 1); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if _, err := sys.OpenStream(Aligned(1, 0), 100, 5.0, 1); err == nil {
		t.Fatal("bad level accepted")
	}
	for _, lux := range []float64{math.NaN(), -1, math.Inf(1), 1e15} {
		if _, err := sys.OpenStream(Aligned(1, 0), lux, 0.5, 1); err == nil {
			t.Errorf("ambient %v lux accepted", lux)
		}
	}
	st, _ := sys.OpenStream(Aligned(1, 0), 100, 0.5, 1)
	if err := st.SetLevel(-3); err == nil {
		t.Fatal("bad SetLevel accepted")
	}
	for _, n := range []int{0, -1} {
		st.ChunkBytes = n
		if _, err := st.Write([]byte("chunk")); err == nil {
			t.Errorf("ChunkBytes %d accepted", n)
		}
		if s := st.Stats(); s.FramesSent != 0 {
			t.Errorf("ChunkBytes %d: %d frames sent", n, s.FramesSent)
		}
	}
}

func TestStreamFailsBeyondRange(t *testing.T) {
	sys := newSystem(t)
	st, err := sys.OpenStream(Aligned(7, 0), 9000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.MaxAttempts = 3
	if _, err := st.Write([]byte("doomed")); err == nil {
		t.Fatal("write over an impossible link should fail")
	}
}

func TestStreamEmptyRead(t *testing.T) {
	sys := newSystem(t)
	st, _ := sys.OpenStream(Aligned(1, 0), 100, 0.5, 1)
	buf := make([]byte, 4)
	if n, err := st.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("empty read: %d, %v", n, err)
	}
	if st.Buffered() != 0 {
		t.Fatal("buffered should be 0")
	}
}
