package machine_test

import (
	"testing"

	"lightwsp/internal/core"
	"lightwsp/internal/probe"
	"lightwsp/internal/workload"
)

// escapeChecker pairs each controller's deadlock-escape events: an exit
// needs an open escape, and an enter needs none.
type escapeChecker struct {
	t             *testing.T
	open          map[int]bool
	enters, exits uint64
}

func (c *escapeChecker) Emit(e probe.Event) {
	switch e.Kind {
	case probe.WPQOverflowEnter:
		if c.open[e.MC] {
			c.t.Fatalf("cycle %d: mc%d entered an escape while one was open", e.Cycle, e.MC)
		}
		c.open[e.MC] = true
		c.enters++
	case probe.WPQOverflowExit:
		if !c.open[e.MC] {
			c.t.Fatalf("cycle %d: mc%d left an escape it never entered", e.Cycle, e.MC)
		}
		c.open[e.MC] = false
		c.exits++
	}
}

// TestEscapeEventsMatchStats: the probe stream and Stats count the §IV-D
// deadlock escape alike, escapes that begin and end inside one Accept
// included, on multi-threaded runs that take tens of thousands of them.
func TestEscapeEventsMatchStats(t *testing.T) {
	for _, w := range []struct {
		suite workload.Suite
		app   string
	}{{workload.WHISPER, "tatp"}, {workload.SPLASH3, "fft"}, {workload.STAMP, "labyrinth"}} {
		t.Run(w.app, func(t *testing.T) {
			sys, err := benchRuntime(t, w.suite, w.app, core.Scheme()).NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			chk := &escapeChecker{t: t, open: map[int]bool{}}
			sys.SetProbeSink(chk)
			if !sys.Run(1 << 40) {
				t.Fatal("run did not complete")
			}
			for mc, open := range chk.open {
				if open {
					t.Errorf("mc%d's escape is still open at the end", mc)
				}
			}
			if d := sys.Stats.WPQDeadlocks; chk.enters != d || chk.exits != d {
				t.Fatalf("%d enters and %d exits, Stats.WPQDeadlocks %d", chk.enters, chk.exits, d)
			}
		})
	}
}
