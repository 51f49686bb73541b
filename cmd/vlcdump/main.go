// Command vlcdump records, inspects and decodes SmartVLC waveform
// captures (the VLC analogue of tcpdump + pcap).
//
// Usage:
//
//	vlcdump record -o link.vlcd -level 0.3 -frames 5 -distance 3 [-samples]
//	vlcdump info link.vlcd
//	vlcdump decode link.vlcd
//
// `record` synthesizes frames through the simulated link and captures the
// TX slot waveform (and, with -samples, the RX ADC stream). `decode` runs
// the frame parser over slot records and the full sample-domain receiver
// over sample records, printing every recovered frame.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
	"smartvlc/internal/vlcdump"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: vlcdump record|info|decode [flags] [file]"))
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "decode":
		err = decode(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

func newAMPPM() (*scheme.AMPPM, error) {
	return scheme.NewAMPPM(amppm.DefaultConstraints())
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "capture.vlcd", "output file")
	level := fs.Float64("level", 0.5, "dimming level")
	frames := fs.Int("frames", 5, "number of frames")
	payload := fs.Int("payload", 128, "payload bytes per frame")
	distance := fs.Float64("distance", 3.0, "link distance (meters) for the sample capture")
	ambient := fs.Float64("ambient", 8000, "ambient lux for the sample capture")
	withSamples := fs.Bool("samples", false, "also capture the receiver-side ADC stream")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sch, err := newAMPPM()
	if err != nil {
		return err
	}
	codec, err := sch.CodecFor(*level)
	if err != nil {
		return err
	}
	var slots []bool
	pcg := rand.NewPCG(*seed, 0xCAFE)
	rng := rand.New(pcg)
	for i := 0; i < *frames; i++ {
		body := make([]byte, *payload)
		for j := range body {
			body[j] = byte(rng.Uint64())
		}
		fslots, err := frame.Build(codec, body)
		if err != nil {
			return err
		}
		slots = append(slots, fslots...)
		slots = frame.AppendIdle(slots, codec.Level(), 48)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := vlcdump.NewWriter(f, 8e-6)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("smartvlc capture: scheme=AMPPM level=%.3f frames=%d payload=%dB", codec.Level(), *frames, *payload)
	if err := w.WriteNote(note); err != nil {
		return err
	}
	if err := w.WriteSlots(slots); err != nil {
		return err
	}
	if *withSamples {
		ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(*distance, 0), *ambient)
		if err != nil {
			return err
		}
		link := phy.DefaultLink(ch)
		link.StartPhase = rng.Float64()
		samples := link.TransmitPCG(pcg, slots)
		if err := w.WriteNote(fmt.Sprintf("rx samples: d=%.2fm ambient=%.0flux", *distance, *ambient)); err != nil {
			return err
		}
		if err := w.WriteSamples(samples); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d slots (%.2f ms of air time)\n", *out, len(slots), float64(len(slots))*8e-3)
	return nil
}

func openCapture(args []string) (*vlcdump.Reader, *os.File, error) {
	if len(args) < 1 {
		return nil, nil, fmt.Errorf("missing capture file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, nil, err
	}
	r, err := vlcdump.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

func info(args []string) error {
	r, f, err := openCapture(args)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("capture: tslot=%.1fµs\n", r.SlotSeconds*1e6)
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch rec.Kind {
		case vlcdump.KindNote:
			fmt.Printf("record %d: note  %q\n", i, rec.Note)
		case vlcdump.KindSlots:
			on := 0
			for _, s := range rec.Slots {
				if s {
					on++
				}
			}
			fmt.Printf("record %d: slots %d (%.2f ms, duty %.3f)\n",
				i, len(rec.Slots), float64(len(rec.Slots))*r.SlotSeconds*1000, float64(on)/float64(max(1, len(rec.Slots))))
		case vlcdump.KindSamples:
			fmt.Printf("record %d: samples %d (%.2f ms at 4x oversampling)\n",
				i, len(rec.Samples), float64(len(rec.Samples))*r.SlotSeconds/4*1000)
		}
	}
	return nil
}

func decode(args []string) error {
	r, f, err := openCapture(args)
	if err != nil {
		return err
	}
	defer f.Close()
	sch, err := newAMPPM()
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch rec.Kind {
		case vlcdump.KindNote:
			fmt.Printf("# %s\n", rec.Note)
		case vlcdump.KindSlots:
			decodeSlots(i, rec.Slots, sch)
		case vlcdump.KindSamples:
			decodeSamples(i, rec.Samples, sch)
		}
	}
	return nil
}

func decodeSlots(idx int, slots []bool, sch *scheme.AMPPM) {
	n := 0
	for off := 0; off+frame.PreambleSlots < len(slots); {
		if !frame.PreambleAt(slots[off:]) {
			off++
			continue
		}
		res, err := frame.Parse(slots[off:], sch.Factory())
		if err != nil {
			off++
			continue
		}
		fmt.Printf("record %d @slot %d: frame len=%dB pattern=% x payload[0:8]=% x\n",
			idx, off, res.Header.Length, res.Header.Pattern, head(res.Payload, 8))
		off += res.SlotsConsumed
		n++
	}
	fmt.Printf("record %d: %d frame(s) in slot waveform\n", idx, n)
}

func decodeSamples(idx int, samples []int, sch *scheme.AMPPM) {
	thr := autoThreshold(samples)
	rx := phy.NewReceiverWithThreshold(thr, sch.Factory())
	results, stats := rx.Process(samples)
	for _, res := range results {
		fmt.Printf("record %d: frame len=%dB pattern=% x payload[0:8]=% x\n",
			idx, res.Header.Length, res.Header.Pattern, head(res.Payload, 8))
	}
	fmt.Printf("record %d: %d frame(s) in sample stream (auto threshold %d, %v)\n", idx, len(results), thr, stats)
}

// autoThreshold picks a detection threshold from the sample histogram
// alone (no channel knowledge): midway between the dark and bright
// population medians, scaled to the 3-sample window.
func autoThreshold(samples []int) int {
	if len(samples) == 0 {
		return 1
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	mid := (lo + hi) / 2
	var darkSum, darkN, brightSum, brightN int
	for _, s := range samples {
		if s <= mid {
			darkSum += s
			darkN++
		} else {
			brightSum += s
			brightN++
		}
	}
	if darkN == 0 || brightN == 0 {
		return 3 * (mid + 1)
	}
	perSample := (darkSum/darkN + brightSum/brightN) / 2
	return 3 * perSample
}

func head(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vlcdump:", err)
	os.Exit(1)
}
