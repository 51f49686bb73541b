package alloctest

import "testing"

var sink []byte

// One allocation in a hundred calls is a mean of 0.01, which
// testing.AllocsPerRun truncates to 0; Count reports it.
func TestCountSeesOneAllocationInManyCalls(t *testing.T) {
	calls := 0
	n, bytes := Count(100, func() {
		if calls == 50 {
			sink = make([]byte, 64)
		}
		calls++
	})
	if calls != 101 {
		t.Fatalf("f called %d times, want 101 (one warm-up, 100 measured)", calls)
	}
	if n != 1 || bytes < 64 {
		t.Fatalf("Count = %d mallocs, %d B; want 1 malloc of at least 64 B", n, bytes)
	}
}
