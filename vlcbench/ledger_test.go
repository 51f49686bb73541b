package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestLedgerReproducesProgram replays op 0 of every workload on a fixed
// seed and checks that the replay reproduces the program's simulated
// outcome, and that the layer self times plus the residual account for
// the replay's op time. A session-loop rewrite that drifts from the
// layer calls the ledger makes fails here.
func TestLedgerReproducesProgram(t *testing.T) {
	const seed = 7
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(seed)
			if err != nil {
				t.Fatal(err)
			}
			prog, _, err := w.serialOp(inst, 0)
			if err != nil {
				t.Fatalf("program op: %v", err)
			}
			l := newLedger()
			l.tr.on, l.tr.epoch = true, time.Now()
			t0 := time.Now()
			l.tr.begin(callOp)
			got, err := w.ledger(inst, l, 0)
			l.tr.end()
			wall := time.Since(t0)
			if err != nil {
				t.Fatalf("ledger op: %v", err)
			}
			if !sameOutcome(got, prog) {
				t.Fatalf("ledger %+v\nprogram %+v", got, prog)
			}
			if l.n.frames != prog.Sent {
				t.Errorf("ledger built %d frames, program sent %d", l.n.frames, prog.Sent)
			}

			var lt layerTimes
			lt.fold(l.tr.spans, 0)
			var sum int64
			for c := range lt.self {
				if lt.self[c] < 0 {
					t.Errorf("%s self time %d ns < 0", callNames[c], lt.self[c])
				}
				sum += lt.self[c]
			}
			root := l.tr.spans[0]
			if root.call != callOp || root.parent != -1 {
				t.Fatalf("first span %+v is not the op root", root)
			}
			if op := root.end - root.start; sum != op {
				t.Errorf("self times sum to %d ns, op span is %d ns", sum, op)
			}
			if gap := wall - time.Duration(root.end-root.start); gap < 0 || gap > time.Millisecond {
				t.Errorf("op span %v vs wall %v around the replay", time.Duration(root.end-root.start), wall)
			}
			if lt.self[callOp] > (root.end-root.start)/5 {
				t.Errorf("residual %d ns is over a fifth of the op (%d ns)", lt.self[callOp], root.end-root.start)
			}
		})
	}
}

// TestRunPrintsResult runs the command end to end on the fastest
// workload, untraced and traced, and checks the result line.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "filetransfer_stream", "--seed", "5", "--seconds", "0.5", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct %v, attempted %d, failed %d: %s", trace, res.Correct, res.Attempted, res.Failed, errOut.String())
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, s.name, m, s.unit)
			}
		}
	}
}

// TestRunRejectsBadArgs checks that a bad invocation fails without a
// result line.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig15_steady", "--trace", "2"},
		{"--workload", "fig15_steady", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists in step with what the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for k, w := range spec.Workloads {
		if w.Name != workloads[k].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", k, w.Name, workloads[k].name)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for k, m := range c.json {
			if m.Name != c.prog[k].name || m.Unit != c.prog[k].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.what, k, m.Name, m.Unit, c.prog[k].name, c.prog[k].unit)
			}
		}
	}
}
