package span

import (
	"bytes"
	"testing"
)

// FuzzReadTrace hammers the Chrome-trace parser with arbitrary bytes: it
// must never panic, whatever it accepts must re-export cleanly, and the
// span tree built from it must keep every traversal finite. The
// seed corpus includes a real WriteChromeTrace export so mutations
// explore the accepted grammar, not just the JSON error path.
func FuzzReadTrace(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleSnapshot().WriteChromeTrace(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","name":"frame","ts":1,"dur":2,"args":{"id":1,"seq":-3,"a_k":"v"}}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"M"}],"displayTimeUnit":"ms"`))
	f.Add([]byte(`not json at all`))
	// A repeated args.id whose second span names the first as parent.
	f.Add([]byte(`{"traceEvents":[{"ph":"X","name":"frame","ts":1,"dur":9,"args":{"id":1}},` +
		`{"ph":"X","name":"phy/decode","ts":2,"dur":1,"args":{"id":1,"parent":1,"a_class":"crc"}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if snap == nil {
			t.Fatal("nil snapshot without error")
		}
		if snap.Total != int64(len(snap.Spans)) {
			t.Fatalf("total %d != %d spans", snap.Total, len(snap.Spans))
		}
		// Anything accepted must survive re-export and re-parse.
		var out bytes.Buffer
		if err := snap.WriteChromeTrace(&out); err != nil {
			t.Fatalf("re-export failed: %v", err)
		}
		if _, err := ReadChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		walkTree(t, NewTree(snap.Spans))
	})
}

// walkTree runs every traversal of a tree built from parsed input: each
// span reachable from a root is reached once (the tree property that
// keeps the analyzers finite), and the frame-root queries return.
func walkTree(t *testing.T, tree *Tree) {
	t.Helper()
	seen := map[ID]bool{}
	var walk func(id ID)
	walk = func(id ID) {
		if seen[id] {
			t.Fatalf("span %d reached twice", id)
		}
		seen[id] = true
		for _, c := range tree.Children(id) {
			walk(c)
		}
	}
	for _, id := range tree.Roots() {
		walk(id)
	}
	for _, name := range []string{"frame", "chunk"} {
		frames := tree.FrameRoots(name)
		for _, f := range frames {
			tree.CriticalPath(f.ID)
		}
		tree.RetxChains(name)
		tree.WorstFrames(name, 5)
		TopSlowest(frames, 5)
	}
}
