package vlog

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Console renders records as human-readable, sim-clock-stamped lines —
// the handler the examples dogfood instead of the stdlib log package,
// so example output shares the vocabulary of every other export. It is
// a renderer, not a sink: emit a Logger snapshot's records through it,
// or emit directly for one-off program messages.
type Console struct {
	w   io.Writer
	min Level
}

// NewConsole returns a console handler writing records at or above min
// to w. A nil w selects os.Stderr.
func NewConsole(w io.Writer, min Level) *Console {
	if w == nil {
		w = os.Stderr
	}
	return &Console{w: w, min: min}
}

// Emit renders one record as a single line:
//
//	[   0.001234s] WARN  phy/decode seq=12: preamble miss (class=ser)
//
// Records below the console's minimum level are dropped.
func (c *Console) Emit(r Record) {
	if c == nil || r.Level < c.min {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%11.6fs] %-5s %s", r.At, strings.ToUpper(r.Level.String()), r.Stage)
	if r.Shard != "" {
		fmt.Fprintf(&b, " %s", r.Shard)
	}
	if r.Seq >= 0 {
		fmt.Fprintf(&b, " seq=%d", r.Seq)
	}
	fmt.Fprintf(&b, ": %s", r.Msg)
	extras := make([]string, 0, len(r.Attrs)+2)
	if r.Scheme != "" {
		extras = append(extras, "scheme="+r.Scheme)
	}
	if r.Dim != "" {
		extras = append(extras, "dim="+r.Dim)
	}
	for _, a := range r.Attrs {
		extras = append(extras, a.Key+"="+a.Value)
	}
	if len(extras) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(extras, " "))
	}
	b.WriteByte('\n')
	io.WriteString(c.w, b.String())
}

// Errorf emits a one-off Error record at sim time zero — the program-
// lifecycle path (setup failures before any session clock exists).
func (c *Console) Errorf(stage, format string, args ...interface{}) {
	if c == nil {
		return
	}
	c.Emit(Record{Level: Error, Stage: stage, Seq: -1, Msg: fmt.Sprintf(format, args...)})
}

// Fatalf is Errorf followed by os.Exit(1) — the examples' replacement
// for stdlib log.Fatal.
func (c *Console) Fatalf(stage, format string, args ...interface{}) {
	c.Errorf(stage, format, args...)
	os.Exit(1)
}
