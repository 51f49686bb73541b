package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"smartvlc/internal/amppm"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
	"smartvlc/internal/vlcdump"
)

// Bundle is a flight-recorder bundle read back from disk.
type Bundle struct {
	// Dir is the bundle directory.
	Dir string
	// Meta is the decoded trigger metadata.
	Meta Meta
	// Spans is the span snapshot at trigger time (nil if absent).
	Spans *span.Snapshot
	// Metrics is the telemetry snapshot at trigger time (nil if absent).
	Metrics *telemetry.Snapshot
	// Logs is the structured log tail before the trigger (nil if absent).
	Logs *vlog.Snapshot
	// Captures is the frame ring, oldest first; the last capture is the
	// frame that fired the trigger.
	Captures []Capture
	// SlotSeconds is the slot duration from the capture header.
	SlotSeconds float64
}

// ReadBundle loads a bundle directory written by Recorder.Trigger.
func ReadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if err := json.Unmarshal(mb, &b.Meta); err != nil {
		return nil, fmt.Errorf("flight: parse meta.json: %w", err)
	}
	if sb, err := os.ReadFile(filepath.Join(dir, "spans.json")); err == nil {
		var snap span.Snapshot
		if err := json.Unmarshal(sb, &snap); err != nil {
			return nil, fmt.Errorf("flight: parse spans.json: %w", err)
		}
		b.Spans = &snap
	}
	if tb, err := os.ReadFile(filepath.Join(dir, "metrics.json")); err == nil {
		var snap telemetry.Snapshot
		if err := json.Unmarshal(tb, &snap); err != nil {
			return nil, fmt.Errorf("flight: parse metrics.json: %w", err)
		}
		b.Metrics = &snap
	}
	if lf, err := os.Open(filepath.Join(dir, "logs.ndjson")); err == nil {
		snap, err := vlog.ParseNDJSON(lf)
		lf.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: parse logs.ndjson: %w", err)
		}
		b.Logs = snap
	}
	f, err := os.Open(filepath.Join(dir, "capture.vlcd"))
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	defer f.Close()
	r, err := vlcdump.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	b.SlotSeconds = r.SlotSeconds
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		switch rec.Kind {
		case vlcdump.KindNote:
			var n captureNote
			if err := json.Unmarshal([]byte(rec.Note), &n); err != nil {
				return nil, fmt.Errorf("flight: parse capture note: %w", err)
			}
			b.Captures = append(b.Captures, Capture{
				Seq: n.Seq, Rx: n.Rx, Start: n.Start, Level: n.Level, Threshold: n.Threshold,
			})
		case vlcdump.KindSlots:
			if len(b.Captures) == 0 {
				return nil, fmt.Errorf("flight: slots record before capture note")
			}
			b.Captures[len(b.Captures)-1].Slots = rec.Slots
		case vlcdump.KindSamples:
			if len(b.Captures) == 0 {
				return nil, fmt.Errorf("flight: samples record before capture note")
			}
			b.Captures[len(b.Captures)-1].Samples = rec.Samples
		}
	}
	return b, nil
}

// schemeFor rebuilds a modulation scheme from its recorded name, using
// the paper's parameters (MPPM and OPPM run at N = 20 everywhere in this
// repository). A mismatched N surfaces as a descriptor error at replay —
// a different class than the live run, which the comparison flags.
func schemeFor(name string) (scheme.Scheme, error) {
	switch name {
	case "AMPPM":
		return scheme.NewAMPPM(amppm.DefaultConstraints())
	case "OOK-CT":
		return scheme.NewOOKCT(), nil
	case "VPPM":
		return scheme.NewVPPM(), nil
	case "MPPM":
		return scheme.NewMPPM(20)
	case "OPPM":
		return scheme.NewOPPM(20)
	default:
		return nil, fmt.Errorf("flight: unknown scheme %q", name)
	}
}

// Replay pushes the triggering capture's samples back through the real
// receiver pipeline — same threshold, same codec factory — and returns
// the decode error class it reproduces: one of the bounded decode classes,
// "ok" for a clean decode, or "hunt" when the preamble is never found.
// Comparing the result with Meta.Class verifies the bundle reproduces the
// live anomaly.
func (b *Bundle) Replay() (string, error) {
	if len(b.Captures) == 0 {
		return "", fmt.Errorf("flight: bundle has no captures")
	}
	c := b.Captures[len(b.Captures)-1]
	return b.ReplayCapture(c)
}

// ReplayCapture replays one capture through the receiver and classifies
// the outcome (see Replay).
func (b *Bundle) ReplayCapture(c Capture) (string, error) {
	sch, err := schemeFor(b.Meta.Scheme)
	if err != nil {
		return "", err
	}
	rx := phy.NewReceiverWithThreshold(c.Threshold, sch.Factory())
	rx.Process(c.Samples)
	return phy.DecodeClass(rx.Events()), nil
}
