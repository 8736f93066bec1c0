package noc

import (
	"math/rand"
	"testing"

	"lightwsp/internal/faults"
)

func TestDeliveryLatencyAndOrder(t *testing.T) {
	n := New(10)
	n.Send(0, Message{Kind: MsgBdryAck, Region: 1, From: 0, To: 1})
	n.Send(2, Message{Kind: MsgBdryAck, Region: 2, From: 0, To: 1})
	if got := n.Deliver(9); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	got := n.Deliver(10)
	if len(got) != 1 || got[0].Region != 1 {
		t.Fatalf("at t=10 want region 1, got %v", got)
	}
	got = n.Deliver(12)
	if len(got) != 1 || got[0].Region != 2 {
		t.Fatalf("at t=12 want region 2, got %v", got)
	}
	if n.Pending() != 0 {
		t.Fatalf("pending = %d", n.Pending())
	}
}

func TestDeliverPreservesSendOrder(t *testing.T) {
	n := New(5)
	for r := uint64(1); r <= 4; r++ {
		n.Send(0, Message{Kind: MsgFlushAck, Region: r, From: 0, To: 1})
	}
	got := n.Deliver(100)
	for i, m := range got {
		if m.Region != uint64(i+1) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

// TestCloneOwnsItsBatches: Deliver reuses its result batch, so a clone
// (a CrashImage battery copy) must get batches of its own; delivering on the
// clone must not rewrite a batch the original handed out.
func TestCloneOwnsItsBatches(t *testing.T) {
	n := New(1)
	n.Send(0, Message{Kind: MsgBdryAck, Region: 1, From: 0, To: 1})
	n.Deliver(1) // the batches now hold storage
	c := n.Clone()
	n.Send(1, Message{Kind: MsgBdryAck, Region: 2, From: 0, To: 1})
	c.Send(1, Message{Kind: MsgFlushAck, Region: 3, From: 1, To: 0})
	got := n.Deliver(2)
	if other := c.Deliver(2); len(other) != 1 || other[0].Region != 3 {
		t.Fatalf("clone delivered %v, want region 3", other)
	}
	if len(got) != 1 || got[0].Region != 2 {
		t.Fatalf("clone's delivery rewrote the original's batch: %v", got)
	}
}

func TestDrainAll(t *testing.T) {
	n := New(1000)
	n.Send(0, Message{Kind: MsgBdryAck, Region: 7, From: 1, To: 0})
	got := n.DrainAll()
	if len(got) != 1 || got[0].Region != 7 {
		t.Fatalf("DrainAll = %v", got)
	}
	if n.Pending() != 0 {
		t.Fatal("DrainAll left messages")
	}
}

func TestDropCoreTraffic(t *testing.T) {
	n := New(100)
	n.Send(0, Message{Kind: MsgBoundary, Region: 3, From: 0, To: 0})
	n.Send(0, Message{Kind: MsgBdryAck, Region: 3, From: 1, To: 0})
	n.Send(0, Message{Kind: MsgFlushAck, Region: 2, From: 1, To: 0})
	n.DropCoreTraffic()
	got := n.DrainAll()
	if len(got) != 2 {
		t.Fatalf("want only ACKs to survive, got %v", got)
	}
	for _, m := range got {
		if m.Kind == MsgBoundary {
			t.Fatal("boundary survived DropCoreTraffic")
		}
	}
}

func TestSentCounters(t *testing.T) {
	n := New(1)
	n.Send(0, Message{Kind: MsgBoundary})
	n.Send(0, Message{Kind: MsgBdryAck})
	n.Send(0, Message{Kind: MsgBdryAck})
	if n.Sent[MsgBoundary] != 1 || n.Sent[MsgBdryAck] != 2 || n.Sent[MsgFlushAck] != 0 {
		t.Fatalf("Sent = %v", n.Sent)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []MsgKind{MsgBoundary, MsgBdryAck, MsgFlushAck, MsgBdryReplay} {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if int(MsgBdryReplay) != NumKinds-1 {
		t.Errorf("NumKinds = %d does not cover MsgBdryReplay = %d", NumKinds, MsgBdryReplay)
	}
}

// DrainAll must return equal-arrival-cycle messages in send order — the
// same tie-break Deliver uses. The power-failure drain depends on this: the
// last boundary-ACK exchange is replayed exactly as it would have unfolded.
func TestDrainAllSendOrderEqualArrival(t *testing.T) {
	n := New(7)
	// All sent at cycle 3, so all share arrival cycle 10. Region encodes
	// send index.
	for r := uint64(0); r < 16; r++ {
		n.Send(3, Message{Kind: MsgBdryAck, Region: r, From: int(r % 3), To: 0})
	}
	got := n.DrainAll()
	if len(got) != 16 {
		t.Fatalf("DrainAll returned %d of 16", len(got))
	}
	for i, m := range got {
		if m.Region != uint64(i) {
			t.Fatalf("send order broken at %d: %v", i, got)
		}
	}
	// Deliver agrees with DrainAll on the tie-break.
	n2 := New(7)
	for r := uint64(0); r < 16; r++ {
		n2.Send(3, Message{Kind: MsgBdryAck, Region: r, To: 0})
	}
	for i, m := range n2.Deliver(10) {
		if m.Region != uint64(i) {
			t.Fatalf("Deliver tie-break disagrees with DrainAll at %d", i)
		}
	}
}

// Property (satellite of the fault work): delay faults move messages to
// later cycles but never invert two messages that end up sharing a delivery
// cycle — every Deliver batch stays in send order.
func TestDelayFaultsNeverReorderEqualArrival(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := New(5)
		n.SetInjector(faults.New(faults.Plan{Seed: seed, DelayPct: 60, MaxDelay: 16}))
		const total = 200
		for i := uint64(0); i < total; i++ {
			// Region encodes send index; spread sends over cycles.
			n.Send(i/4, Message{Kind: MsgBdryAck, Region: i, To: 0})
		}
		delivered := 0
		for now := uint64(0); now < 400; now++ {
			batch := n.Deliver(now)
			for i := 1; i < len(batch); i++ {
				if batch[i].Region < batch[i-1].Region {
					t.Fatalf("seed %d cycle %d: delay faults inverted equal-arrival messages: %v",
						seed, now, batch)
				}
			}
			delivered += len(batch)
		}
		if delivered != total {
			t.Fatalf("seed %d: delivered %d of %d", seed, delivered, total)
		}
	}
}

// With reorder faults enabled, equal-arrival inversions must actually occur
// (otherwise the fault dimension is dead weight).
func TestReorderFaultsInvertEqualArrival(t *testing.T) {
	n := New(5)
	n.SetInjector(faults.New(faults.Plan{Seed: 1, ReorderPct: 50}))
	const total = 200
	for i := uint64(0); i < total; i++ {
		n.Send(i/8, Message{Kind: MsgBdryAck, Region: i, To: 0})
	}
	inversions := 0
	for now := uint64(0); now < 400; now++ {
		batch := n.Deliver(now)
		for i := 1; i < len(batch); i++ {
			if batch[i].Region < batch[i-1].Region {
				inversions++
			}
		}
	}
	if inversions == 0 {
		t.Fatal("50% reorder faults produced no equal-arrival inversions")
	}
}

func TestDropAndDupFaults(t *testing.T) {
	n := New(3)
	n.SetInjector(faults.New(faults.Plan{Seed: 5, DropPct: 30, DupPct: 30}))
	const total = 300
	for i := uint64(0); i < total; i++ {
		n.Send(i, Message{Kind: MsgFlushAck, Region: i, To: 0})
	}
	counts := map[uint64]int{}
	for _, m := range n.DrainAll() {
		counts[m.Region]++
	}
	var lost, duped int
	for i := uint64(0); i < total; i++ {
		switch counts[i] {
		case 0:
			lost++
		case 2:
			duped++
		case 1:
		default:
			t.Fatalf("region %d delivered %d times", i, counts[i])
		}
	}
	if lost == 0 || duped == 0 {
		t.Fatalf("faults inert: lost=%d duped=%d", lost, duped)
	}
	if n.Sent[MsgFlushAck] != total {
		t.Fatalf("Sent counts fault artifacts: %d != %d", n.Sent[MsgFlushAck], total)
	}
}

// Boundary replays are MC-originated and battery-backed: they must survive
// the power-failure core-traffic purge that kills MsgBoundary.
func TestBdryReplaySurvivesDropCoreTraffic(t *testing.T) {
	n := New(10)
	n.Send(0, Message{Kind: MsgBoundary, Region: 1, From: 0, To: 0})
	n.Send(0, Message{Kind: MsgBdryReplay, Region: 1, From: 1, To: 0})
	n.DropCoreTraffic()
	got := n.DrainAll()
	if len(got) != 1 || got[0].Kind != MsgBdryReplay {
		t.Fatalf("want only the replay to survive, got %v", got)
	}
}

// With no injector attached, Send must behave exactly as the perfect
// fabric: every message delivered once, at now+latency, in send order.
func TestNilInjectorIsPerfectFabric(t *testing.T) {
	n := New(4)
	n.SetInjector(nil)
	for i := uint64(0); i < 50; i++ {
		n.Send(i, Message{Kind: MsgBdryAck, Region: i, To: 0})
	}
	seen := 0
	for now := uint64(0); now < 100; now++ {
		for _, m := range n.Deliver(now) {
			if now != m.Region+4 {
				t.Fatalf("region %d delivered at %d, want %d", m.Region, now, m.Region+4)
			}
			seen++
		}
	}
	if seen != 50 {
		t.Fatalf("delivered %d of 50", seen)
	}
}

func TestDeliverNeverEarlyProperty(t *testing.T) {
	// Messages sent at time s with latency L are never delivered before
	// s+L, and always delivered by DrainAll.
	for lat := uint64(1); lat <= 64; lat *= 4 {
		n := New(lat)
		sendTimes := map[uint64][]uint64{} // region -> send time
		for i := uint64(0); i < 50; i++ {
			st := i * 3 % 41
			n.Send(st, Message{Kind: MsgBdryAck, Region: i, To: 0})
			sendTimes[i] = append(sendTimes[i], st)
		}
		seen := map[uint64]bool{}
		for now := uint64(0); now < 200; now++ {
			for _, m := range n.Deliver(now) {
				if now < sendTimes[m.Region][0]+lat {
					t.Fatalf("lat %d: region %d delivered at %d, sent %d",
						lat, m.Region, now, sendTimes[m.Region][0])
				}
				seen[m.Region] = true
			}
		}
		if len(seen) != 50 {
			t.Fatalf("lat %d: delivered %d of 50", lat, len(seen))
		}
	}
}

// TestNextArrivalMatchesScan checks the stored earliest arrival against a
// scan of the queue after every operation of random streams: sends through
// an injector that drops, delays, duplicates and reorders, deliveries at
// cycles that step or jump, DrainAll, DropCoreTraffic and Clone.
func TestNextArrivalMatchesScan(t *testing.T) {
	scan := func(n *Network) uint64 {
		next := uint64(NoEvent)
		for _, f := range n.queue {
			next = min(next, f.arrival)
		}
		return next
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		plan := faults.Plan{Seed: seed, DropPct: 15, DupPct: 15, DelayPct: 25, ReorderPct: 15, MaxDelay: 20}
		n := New(uint64(1 + r.Intn(12)))
		n.SetInjector(faults.New(plan))
		now := uint64(0)
		for op := 0; op < 600; op++ {
			what := ""
			switch k := r.Intn(20); {
			case k < 9:
				what = "Send"
				n.Send(now, Message{Kind: MsgKind(r.Intn(NumKinds)), Region: uint64(r.Intn(8)), From: r.Intn(4), To: r.Intn(4)})
			case k < 16:
				what = "Deliver"
				now += uint64(r.Intn(4))
				if r.Intn(8) == 0 {
					now += uint64(r.Intn(40))
				}
				n.Deliver(now)
			case k < 17:
				what = "DrainAll"
				n.DrainAll()
			case k < 18:
				what = "DropCoreTraffic"
				n.DropCoreTraffic()
			default:
				what = "Clone"
				c := n.Clone()
				c.SetInjector(faults.New(plan))
				if got, want := c.NextArrival(), scan(c); got != want {
					t.Fatalf("seed %d op %d: clone NextArrival %d, scan %d", seed, op, got, want)
				}
				n.Send(now, Message{Kind: MsgBdryAck, Region: 99, To: 1}) // the original moves on alone
				if got, want := c.NextArrival(), scan(c); got != want {
					t.Fatalf("seed %d op %d: clone NextArrival %d after a send to the original, scan %d", seed, op, got, want)
				}
				n = c
			}
			if got, want := n.NextArrival(), scan(n); got != want {
				t.Fatalf("seed %d op %d (%s at cycle %d): NextArrival %d, scan %d", seed, op, what, now, got, want)
			}
		}
	}
}
