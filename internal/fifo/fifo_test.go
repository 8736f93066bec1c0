package fifo

import "testing"

// TestPushReusesStorage drives a bound-4 queue through many push/pop
// rounds at every occupancy: order is FIFO, the window never leaves buf
// (no reallocation), and an emptied (nil) queue starts over in buf.
func TestPushReusesStorage(t *testing.T) {
	const bound = 4
	buf := Storage[int](bound)
	// inBuf reports whether a non-empty window still lives in buf: its
	// spare capacity ends where buf ends.
	inBuf := func(q []int) bool { return &q[:cap(q)][cap(q)-1] == &buf[len(buf)-1] }
	var q []int
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for len(q) < 1+round%bound {
			q = Push(buf, q, next)
			next++
			if !inBuf(q) {
				t.Fatalf("round %d: queue left its storage", round)
			}
		}
		for len(q) > round%2 {
			if q[0] != want {
				t.Fatalf("round %d: popped %d, want %d", round, q[0], want)
			}
			q = q[1:]
			want++
		}
		if round%7 == 0 {
			q = nil // what a power failure does to a volatile queue
			want = next
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q = Push(buf, q, 1)
		q = q[1:]
	}); allocs != 0 {
		t.Fatalf("%v allocations per push/pop", allocs)
	}
}
