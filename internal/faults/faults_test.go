package faults

import (
	"encoding/json"
	"testing"
)

// Two injectors built from the same plan must produce the same decision
// stream — this is the bit-identical replay guarantee crashfuzz relies on.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropPct: 10, DupPct: 10, DelayPct: 20, ReorderPct: 5}
	a, b := New(plan), New(plan)
	for now := uint64(0); now < 2000; now++ {
		da := a.Message(now, int(now%3), now/7, int(now%4), int(now%5))
		db := b.Message(now, int(now%3), now/7, int(now%4), int(now%5))
		if da != db {
			t.Fatalf("cycle %d: decisions diverge: %+v vs %+v", now, da, db)
		}
	}
	if a.Drops != b.Drops || a.Dups != b.Dups || a.Delays != b.Delays || a.Reorders != b.Reorders {
		t.Fatalf("counters diverge: %+v vs %+v", a, b)
	}
}

// Different seeds must produce different decision streams (overwhelmingly).
// A clone decides exactly as its original would from the point it was
// taken, and consulting it leaves the original's stream untouched — what
// lets a crash image drain on a copy without shifting the live machine's
// later faults.
func TestInjectorCloneIsIndependent(t *testing.T) {
	plan := Plan{Seed: 7, DropPct: 20, DupPct: 10, DelayPct: 20, ReorderPct: 10}
	live, ref := New(plan), New(plan)
	for now := uint64(0); now < 100; now++ {
		live.Message(now, 1, now, 0, 1)
		ref.Message(now, 1, now, 0, 1)
	}
	c := live.Clone()
	for now := uint64(100); now < 200; now++ {
		if dc, dr := c.Message(now, 2, now, 1, 0), ref.Message(now, 2, now, 1, 0); dc != dr {
			t.Fatalf("cycle %d: clone decided %+v, original stream %+v", now, dc, dr)
		}
	}
	fresh := New(plan)
	for now := uint64(0); now < 100; now++ {
		fresh.Message(now, 1, now, 0, 1)
	}
	for now := uint64(100); now < 200; now++ {
		if dl, df := live.Message(now, 2, now, 1, 0), fresh.Message(now, 2, now, 1, 0); dl != df {
			t.Fatalf("cycle %d: consulting the clone shifted the original: %+v vs %+v", now, dl, df)
		}
	}
	if (*Injector)(nil).Clone() != nil {
		t.Fatal("clone of the fault-free nil injector is not nil")
	}
}

func TestInjectorSeedMatters(t *testing.T) {
	a := New(Plan{Seed: 1, DropPct: 50})
	b := New(Plan{Seed: 2, DropPct: 50})
	same := 0
	const n = 1000
	for now := uint64(0); now < n; now++ {
		if a.Message(now, 0, 0, 0, 1) == b.Message(now, 0, 0, 0, 1) {
			same++
		}
	}
	if same == n {
		t.Fatalf("seeds 1 and 2 produced identical decision streams")
	}
}

// Observed fault rates should be in the right ballpark of the configured
// percentages — loose bounds, this is a sanity check not a statistics test.
func TestInjectorRates(t *testing.T) {
	in := New(Plan{Seed: 7, DropPct: 25, DupPct: 25, DelayPct: 25, ReorderPct: 25})
	const n = 20000
	for now := uint64(0); now < n; now++ {
		in.Message(now, 0, now, 0, 1)
	}
	check := func(name string, got uint64, pct float64) {
		t.Helper()
		lo, hi := uint64(n*pct*0.7), uint64(n*pct*1.3)
		if got < lo || got > hi {
			t.Errorf("%s: got %d faults of %d messages, want within [%d, %d]", name, got, n, lo, hi)
		}
	}
	check("drops", in.Drops, 0.25)
	// Dup/delay/reorder only roll on non-dropped messages (~75% of n).
	check("dups", in.Dups, 0.25*0.75)
	check("delays", in.Delays, 0.25*0.75)
	check("reorders", in.Reorders, 0.25*0.75)
}

// Drop excludes the other faults within a single decision.
func TestDropExcludesOtherFaults(t *testing.T) {
	in := New(Plan{Seed: 3, DropPct: 60, DupPct: 100, DelayPct: 100, ReorderPct: 100})
	dropped := false
	for now := uint64(0); now < 500; now++ {
		d := in.Message(now, 0, now, 0, 1)
		if d.Drop {
			dropped = true
			if d.Dup || d.Delay != 0 || d.Reorder {
				t.Fatalf("cycle %d: drop combined with other faults: %+v", now, d)
			}
		}
	}
	if !dropped {
		t.Fatalf("60%% drop rate produced no drops in 500 messages")
	}
}

func TestDelayBounded(t *testing.T) {
	in := New(Plan{Seed: 9, DelayPct: 100, MaxDelay: 5})
	seen := map[uint64]bool{}
	for now := uint64(0); now < 500; now++ {
		d := in.Message(now, 0, now, 0, 1)
		if d.Delay < 1 || d.Delay > 5 {
			t.Fatalf("delay %d outside [1, 5]", d.Delay)
		}
		seen[d.Delay] = true
	}
	if len(seen) < 2 {
		t.Fatalf("delays not varied: %v", seen)
	}
}

// A disabled plan yields a nil injector, and the nil injector is inert.
func TestDisabledPlanIsNilInjector(t *testing.T) {
	if in := New(Plan{}); in != nil {
		t.Fatalf("New(zero Plan) = %v, want nil", in)
	}
	if in := New(Plan{Seed: 99}); in != nil {
		t.Fatalf("seed without fault dimensions should be disabled, got %v", in)
	}
	var in *Injector
	if d := in.Message(10, 0, 1, 0, 1); d != (Decision{}) {
		t.Fatalf("nil injector decision = %+v, want zero", d)
	}
	if in.MCStuck(10, 0) {
		t.Fatalf("nil injector reports a stuck MC")
	}
	if p := in.Plan(); p != (Plan{}) {
		t.Fatalf("nil injector plan = %+v, want zero", p)
	}
}

func TestMCStuckWindow(t *testing.T) {
	in := New(Plan{StuckMC: 1, StuckFrom: 100, StuckFor: 50})
	cases := []struct {
		now  uint64
		mc   int
		want bool
	}{
		{99, 1, false},
		{100, 1, true},
		{149, 1, true},
		{150, 1, false},
		{120, 0, false}, // other controller unaffected
	}
	for _, c := range cases {
		if got := in.MCStuck(c.now, c.mc); got != c.want {
			t.Errorf("MCStuck(%d, %d) = %v, want %v", c.now, c.mc, got, c.want)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"drop=10",
		"drop=10,dup=5,delay=20:48,reorder=5,stuck=1@100+500",
		"delay=15:32",
		"stuck=0@0+1200",
	}
	for _, s := range cases {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		// String() normalizes (e.g. adds the default max delay), so round-trip
		// through a second parse instead of comparing strings.
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q.String() = %q): %v", s, p.String(), err)
		}
		if p != p2 {
			t.Errorf("round trip of %q: %+v != %+v", s, p, p2)
		}
	}
	if p, err := ParsePlan(""); err != nil || p.Enabled() {
		t.Errorf("empty plan: %+v, %v", p, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"drop", "drop=abc", "drop=101", "drop=-1",
		"delay=10:0", "delay=10:x",
		"stuck=1", "stuck=1@5", "stuck=x@5+9", "stuck=1@x+9", "stuck=1@5+0",
		"bogus=3",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", s)
		}
	}
}

// The Plan is embedded in crashfuzz JSON repros; it must survive a
// marshal/unmarshal round trip unchanged.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := Plan{Seed: -3, DropPct: 10, DupPct: 5, DelayPct: 20, ReorderPct: 5,
		MaxDelay: 48, StuckMC: 1, StuckFrom: 100, StuckFor: 500}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Fatalf("JSON round trip: %+v != %+v", p, q)
	}
	if p.Key() != q.Key() {
		t.Fatalf("keys differ after round trip")
	}
}
