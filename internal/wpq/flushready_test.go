package wpq

import (
	"fmt"
	"math/rand"
	"testing"

	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
)

// TestFlushReadyMatchesMaps checks the stored flush-region answer against a
// fresh canFlush(flushID) from the boundary and ACK maps after every step of
// random streams over 2-4 gated controllers: data entries, boundaries (home
// copies and control replicas), messages delivered late, out of order,
// duplicated or lost, spurious ACKs, boundary replays, ticks with and
// without the retry timer, drain steps (which commit) and clones, with
// counting (BrokenDupAcks) and per-peer ACK bookkeeping.
func TestFlushReadyMatchesMaps(t *testing.T) {
	for _, broken := range []bool{false, true} {
		for seed := int64(1); seed <= 60; seed++ {
			t.Run(fmt.Sprintf("broken=%v/seed=%d", broken, seed), func(t *testing.T) {
				flushReadyStream(t, rand.New(rand.NewSource(seed)), broken)
			})
		}
	}
}

func flushReadyStream(t *testing.T, r *rand.Rand, broken bool) {
	n := 2 + r.Intn(3)
	pm := mem.NewImage()
	var net []noc.Message
	qs := make([]*Queue, n)
	sinks := Sinks{
		PMWrite: pm.Write,
		PMRead:  pm.Read,
		Send:    func(m noc.Message) { net = append(net, m) },
	}
	for i := range qs {
		qs[i] = New(Config{ID: i, NumMCs: n, Entries: 4 + r.Intn(8), Mode: Gated,
			PMWriteInterval: 1, RetryTimeout: 8, RetryBudget: 2, BrokenDupAcks: broken}, sinks)
		if r.Intn(2) == 0 {
			qs[i].EnableRetry()
		}
	}
	exchange := func(m noc.Message) { qs[m.To].OnMessage(0, m) }
	commits := 0
	for step, now := 0, uint64(1); step < 400; step++ {
		i := r.Intn(n)
		q := qs[i]
		region := q.flushID + uint64(r.Intn(3))
		what := ""
		switch k := r.Intn(24); {
		case k < 4:
			what = "data entry"
			q.Accept(now, Entry{Addr: uint64(0x1000 + 8*r.Intn(64)), Val: uint64(step), Region: region})
		case k < 6:
			what = "boundary entry"
			q.Accept(now, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: region, Region: region, Boundary: true})
		case k < 8:
			what = "control boundary"
			q.AcceptControl(now, region)
		case k < 9:
			what = "boundary message"
			q.OnMessage(now, noc.Message{Kind: noc.MsgBoundary, Region: region, From: r.Intn(n), To: i})
		case k < 14 && len(net) > 0:
			// Deliver a random pending message, late and out of order; now
			// and then leave a copy queued (a duplicate) or lose it.
			j := r.Intn(len(net))
			m := net[j]
			if r.Intn(10) != 0 {
				net = append(net[:j], net[j+1:]...)
			}
			if r.Intn(10) == 0 {
				what = "message lost"
				break
			}
			what = "message"
			qs[m.To].OnMessage(now, m)
		case k < 16:
			what = "spurious bdry-ACK"
			from := r.Intn(n)
			if from != i {
				q.OnMessage(now, noc.Message{Kind: noc.MsgBdryAck, Region: region, From: from, To: i})
			}
		case k < 17:
			what = "replay"
			from := r.Intn(n)
			if from != i {
				q.OnMessage(now, noc.Message{Kind: noc.MsgBdryReplay, Region: region, From: from, To: i})
			}
		case k < 21:
			what = "tick"
			before := q.Committed
			q.Tick(now)
			commits += int(q.Committed - before)
			now++
		case k < 22:
			what = "drain step"
			before := q.Committed
			q.DrainStep(now, exchange)
			commits += int(q.Committed - before)
		case k < 23:
			what = "clone"
			c := q.Clone(sinks)
			if c.flushReady != c.canFlush(c.flushID) {
				t.Fatalf("step %d: clone of controller %d stores %v, maps say %v", step, i, c.flushReady, c.canFlush(c.flushID))
			}
			q.OnMessage(now, noc.Message{Kind: noc.MsgBoundary, Region: q.flushID, To: i}) // the original moves on alone
			if c.flushReady != c.canFlush(c.flushID) {
				t.Fatalf("step %d: clone of controller %d stores %v after its original moved, maps say %v", step, i, c.flushReady, c.canFlush(c.flushID))
			}
			qs[i] = c
		default:
			what = "reannounce"
			q.Reannounce(exchange)
		}
		for j, q := range qs {
			if got, want := q.flushReady, q.canFlush(q.flushID); got != want {
				t.Fatalf("step %d (%s): controller %d flush region %d stores %v, maps say %v", step, what, j, q.flushID, got, want)
			}
		}
	}
	if commits == 0 {
		t.Fatal("no region committed: the stream never moved the flush ID")
	}
}
