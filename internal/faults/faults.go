// Package faults is the deterministic fault model of the persist fabric:
// a seed-driven Injector that the NoC and the machine consult to drop,
// duplicate, delay or reorder individual protocol messages (boundary
// broadcasts, bdry-ACKs, flush-ACKs) and to mark a memory controller slow
// or stuck for a cycle window.
//
// Every decision is derived from a hash of the (seed, cycle, message)
// tuple plus a per-injector consultation counter, so a campaign replays
// bit-identically from its Plan alone: no wall clock, no shared PRNG state,
// no map iteration order. Duplicates and retransmissions of the same
// logical message hash independently (the counter advances per decision),
// which is what makes retry-until-delivered terminate under any drop rate
// below 100%.
//
// The zero Plan is the disabled model: New returns a nil *Injector for it,
// and every Injector method is nil-receiver safe, so fault-free simulations
// keep their single-branch fast path.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultMaxDelay bounds injected per-message jitter when a Plan enables
// delay faults without choosing a bound.
const DefaultMaxDelay = 32

// Plan describes one campaign's fault model. It is JSON-serializable and
// embedded verbatim in crash-fuzzing repro files; the same Plan always
// produces the same Injector decision stream.
type Plan struct {
	// Seed drives every hashed decision.
	Seed int64 `json:"seed"`
	// DropPct, DupPct, DelayPct and ReorderPct are per-message fault
	// probabilities in percent (0–100). Drop wins over the others.
	DropPct    int `json:"drop_pct"`
	DupPct     int `json:"dup_pct"`
	DelayPct   int `json:"delay_pct"`
	ReorderPct int `json:"reorder_pct"`
	// MaxDelay bounds the extra cycles of a delayed message
	// (0 = DefaultMaxDelay).
	MaxDelay uint64 `json:"max_delay,omitempty"`
	// StuckMC marks controller StuckMC unresponsive — no WPQ progress, no
	// message ingress, no persist-path acceptance — for StuckFor cycles
	// starting at StuckFrom. StuckFor = 0 disables the window.
	StuckMC   int    `json:"stuck_mc,omitempty"`
	StuckFrom uint64 `json:"stuck_from,omitempty"`
	StuckFor  uint64 `json:"stuck_for,omitempty"`
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.DropPct > 0 || p.DupPct > 0 || p.DelayPct > 0 || p.ReorderPct > 0 ||
		p.StuckFor > 0
}

// Key renders the plan canonically for cache keys: every field in a fixed
// order, so two equal plans always produce equal keys.
func (p Plan) Key() string {
	return fmt.Sprintf("seed=%d,drop=%d,dup=%d,delay=%d:%d,reorder=%d,stuck=%d@%d+%d",
		p.Seed, p.DropPct, p.DupPct, p.DelayPct, p.maxDelay(), p.ReorderPct,
		p.StuckMC, p.StuckFrom, p.StuckFor)
}

// String renders the plan in the -faults flag syntax (see ParsePlan),
// omitting disabled dimensions.
func (p Plan) String() string {
	var parts []string
	if p.DropPct > 0 {
		parts = append(parts, fmt.Sprintf("drop=%d", p.DropPct))
	}
	if p.DupPct > 0 {
		parts = append(parts, fmt.Sprintf("dup=%d", p.DupPct))
	}
	if p.DelayPct > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d:%d", p.DelayPct, p.maxDelay()))
	}
	if p.ReorderPct > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%d", p.ReorderPct))
	}
	if p.StuckFor > 0 {
		parts = append(parts, fmt.Sprintf("stuck=%d@%d+%d", p.StuckMC, p.StuckFrom, p.StuckFor))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func (p Plan) maxDelay() uint64 {
	if p.MaxDelay == 0 {
		return DefaultMaxDelay
	}
	return p.MaxDelay
}

// ParsePlan parses the -faults flag syntax: a comma-separated list of
// fault dimensions, e.g. "drop=10,dup=5,delay=20:48,reorder=5,stuck=1@100+500".
//
//	drop=P      drop P% of messages
//	dup=P       duplicate P% of messages
//	delay=P[:M] delay P% of messages by 1..M extra cycles (default M = 32)
//	reorder=P   let P% of messages overtake within their delivery cycle
//	stuck=M@F+N controller M is stuck for N cycles starting at cycle F
//
// The empty string and "none" parse to the disabled zero Plan. The seed is
// not part of the syntax; set Plan.Seed (the -fault-seed flag) separately.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("faults: %q: want key=value", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "drop", "dup", "reorder":
			pct, err := parsePct(val)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: %s=%s: %w", key, val, err)
			}
			switch key {
			case "drop":
				p.DropPct = pct
			case "dup":
				p.DupPct = pct
			case "reorder":
				p.ReorderPct = pct
			}
		case "delay":
			spec := strings.SplitN(val, ":", 2)
			pct, err := parsePct(spec[0])
			if err != nil {
				return Plan{}, fmt.Errorf("faults: delay=%s: %w", val, err)
			}
			p.DelayPct = pct
			if len(spec) == 2 {
				max, err := strconv.ParseUint(spec[1], 10, 64)
				if err != nil || max == 0 {
					return Plan{}, fmt.Errorf("faults: delay=%s: bad max delay", val)
				}
				p.MaxDelay = max
			}
		case "stuck":
			// M@F+N
			at := strings.SplitN(val, "@", 2)
			if len(at) != 2 {
				return Plan{}, fmt.Errorf("faults: stuck=%s: want MC@FROM+FOR", val)
			}
			mc, err := strconv.Atoi(at[0])
			if err != nil || mc < 0 {
				return Plan{}, fmt.Errorf("faults: stuck=%s: bad controller index", val)
			}
			win := strings.SplitN(at[1], "+", 2)
			if len(win) != 2 {
				return Plan{}, fmt.Errorf("faults: stuck=%s: want MC@FROM+FOR", val)
			}
			from, err := strconv.ParseUint(win[0], 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: stuck=%s: bad start cycle", val)
			}
			dur, err := strconv.ParseUint(win[1], 10, 64)
			if err != nil || dur == 0 {
				return Plan{}, fmt.Errorf("faults: stuck=%s: bad duration", val)
			}
			p.StuckMC, p.StuckFrom, p.StuckFor = mc, from, dur
		default:
			return Plan{}, fmt.Errorf("faults: unknown dimension %q", key)
		}
	}
	return p, nil
}

func parsePct(s string) (int, error) {
	pct, err := strconv.Atoi(s)
	if err != nil || pct < 0 || pct > 100 {
		return 0, fmt.Errorf("bad percentage %q (want 0–100)", s)
	}
	return pct, nil
}

// Decision is the injector's verdict on one message. The zero Decision is
// "deliver normally". Drop excludes the other faults.
type Decision struct {
	Drop    bool
	Dup     bool
	Delay   uint64
	Reorder bool
}

// Injector hands out hashed fault decisions for one simulated machine. It is
// driven from a single simulation goroutine; all methods are nil-receiver
// safe and a nil *Injector is the fault-free model.
type Injector struct {
	plan  Plan
	nonce uint64

	// Counters of faults actually injected, folded into machine stats.
	Drops, Dups, Delays, Reorders uint64
}

// New returns an injector for the plan, or nil when the plan is disabled —
// callers gate every consultation on a nil check, which keeps the fault-free
// fast path to a single branch.
func New(p Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{plan: p}
}

// Clone returns an independent copy: the same plan, consultation counter
// and fault counters, so the copy decides exactly as in would from here on
// while in's own decision stream stays untouched. Nil-receiver safe.
func (in *Injector) Clone() *Injector {
	if in == nil {
		return nil
	}
	c := *in
	return &c
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Message decides the fate of one protocol message. kind is the noc.MsgKind
// (or the boundary kind for persist-path control replicas), region/from/to
// identify the message. Each call advances the injector's consultation
// counter, so retransmissions and duplicates of the same logical message
// draw independent decisions.
func (in *Injector) Message(now uint64, kind int, region uint64, from, to int) Decision {
	var d Decision
	if in == nil {
		return d
	}
	in.nonce++
	h := splitmix64(uint64(in.plan.Seed)) ^
		splitmix64(now+0x9E3779B97F4A7C15) ^
		splitmix64(uint64(kind)<<48|region<<8|uint64(uint8(from))<<4|uint64(uint8(to))) ^
		splitmix64(in.nonce)
	if roll(h, 1, in.plan.DropPct) {
		in.Drops++
		d.Drop = true
		return d
	}
	if roll(h, 2, in.plan.DupPct) {
		in.Dups++
		d.Dup = true
	}
	if roll(h, 3, in.plan.DelayPct) {
		in.Delays++
		d.Delay = 1 + splitmix64(h^4)%in.plan.maxDelay()
	}
	if roll(h, 5, in.plan.ReorderPct) {
		in.Reorders++
		d.Reorder = true
	}
	return d
}

// MCStuck reports whether controller mc is inside its stuck window at cycle
// now. The window is explicit in the Plan (not hashed), so campaigns can
// place it deliberately.
func (in *Injector) MCStuck(now uint64, mc int) bool {
	if in == nil || in.plan.StuckFor == 0 || mc != in.plan.StuckMC {
		return false
	}
	return now >= in.plan.StuckFrom && now-in.plan.StuckFrom < in.plan.StuckFor
}

// NoEvent is NextEvent's result when no time-driven edge remains.
const NoEvent = ^uint64(0)

// NextEvent returns the next cycle strictly after now at which a
// time-driven decision of the injector changes: the stuck window's start or
// its end. Per-message faults (drop/dup/delay/reorder) are decided at Send
// time and need no schedule of their own. Nil-receiver safe; returns
// NoEvent when no edge remains.
func (in *Injector) NextEvent(now uint64) uint64 {
	if in == nil || in.plan.StuckFor == 0 {
		return NoEvent
	}
	if in.plan.StuckFrom > now {
		return in.plan.StuckFrom
	}
	if end := in.plan.StuckFrom + in.plan.StuckFor; end > now {
		return end
	}
	return NoEvent
}

// StuckUntil returns the first cycle at or after now at which mc is outside
// its stuck window — now itself when it is not currently stuck. The
// event/epoch scheduler uses it to defer a stuck controller's queue events
// to the window's end, mirroring the per-cycle stepper, which skips a stuck
// controller's tick entirely.
func (in *Injector) StuckUntil(now uint64, mc int) uint64 {
	if !in.MCStuck(now, mc) {
		return now
	}
	return in.plan.StuckFrom + in.plan.StuckFor
}

// roll draws an independent percentage decision from the message hash.
func roll(h uint64, salt uint64, pct int) bool {
	if pct <= 0 {
		return false
	}
	return splitmix64(h^salt)%100 < uint64(pct)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
