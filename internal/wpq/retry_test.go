package wpq

import (
	"testing"

	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
)

// rpair is the pair fixture with configurable retry knobs and a message
// filter, for exercising the reliable-delivery machinery directly.
type rpair struct {
	pm   *mem.Image
	q    [2]*Queue
	net  []noc.Message
	drop func(m noc.Message) bool // true = the fabric loses the message
}

func newRPair(t *testing.T, cfg Config) *rpair {
	t.Helper()
	p := &rpair{pm: mem.NewImage()}
	for i := 0; i < 2; i++ {
		c := cfg
		c.ID, c.NumMCs = i, 2
		if c.Entries == 0 {
			c.Entries = 8
		}
		c.Mode, c.PMWriteInterval = Gated, 1
		p.q[i] = New(c, Sinks{
			PMWrite: func(a, v uint64) { p.pm.Write(a, v) },
			PMRead:  func(a uint64) uint64 { return p.pm.Read(a) },
			Send: func(m noc.Message) {
				if p.drop != nil && p.drop(m) {
					return
				}
				p.net = append(p.net, m)
			},
		})
		p.q[i].EnableRetry()
	}
	return p
}

func (p *rpair) pump(now uint64) {
	msgs := p.net
	p.net = nil
	for _, m := range msgs {
		p.q[m.To].OnMessage(now, m)
	}
	for i := range p.q {
		p.q[i].Tick(now)
	}
}

func (p *rpair) run(from, to uint64) {
	for c := from; c <= to; c++ {
		p.pump(c)
	}
}

// TestRetryHealsDroppedAck drops the first bdry-ACK from MC1 and verifies
// the retransmission timer re-solicits it: MC0 sends a boundary replay after
// RetryTimeout, MC1 re-ACKs, and the region flushes.
func TestRetryHealsDroppedAck(t *testing.T) {
	p := newRPair(t, Config{RetryTimeout: 10, RetryBudget: 3})
	dropped := false
	p.drop = func(m noc.Message) bool {
		if m.Kind == noc.MsgBdryAck && m.From == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.q[0].Accept(0, Entry{Addr: 0x100, Val: 7, Region: 1})
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(0, 100)
	if !dropped {
		t.Fatal("fixture never dropped the ACK")
	}
	if p.q[0].Retries == 0 {
		t.Fatal("no boundary replay retransmitted")
	}
	if p.pm.Read(0x100) != 7 {
		t.Fatal("region never flushed: the replay did not heal the dropped ACK")
	}
	if p.q[0].FlushID() != 2 || p.q[1].FlushID() != 2 {
		t.Fatalf("flush IDs = %d,%d want 2,2", p.q[0].FlushID(), p.q[1].FlushID())
	}
}

// TestRetryBudgetExhaustionReportsPeer blackholes every ACK and replay reply
// from MC1 and verifies that after the retry budget is spent, MC0 reports the
// silent peer via OnPeerTimeout — and keeps replaying at maximum backoff
// rather than going quiet.
func TestRetryBudgetExhaustionReportsPeer(t *testing.T) {
	p := newRPair(t, Config{RetryTimeout: 4, RetryBudget: 2})
	var timeouts []int
	p.q[0].sinks.OnPeerTimeout = func(peer int) { timeouts = append(timeouts, peer) }
	p.drop = func(m noc.Message) bool { return m.From == 1 } // MC1 is mute
	p.q[0].Accept(0, Entry{Addr: 0x100, Val: 7, Region: 1})
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(0, 400)
	if len(timeouts) == 0 {
		t.Fatal("retry budget exhaustion never reported the silent peer")
	}
	for _, peer := range timeouts {
		if peer != 1 {
			t.Fatalf("reported peer %d, want 1", peer)
		}
	}
	retriesSoFar := p.q[0].Retries
	if retriesSoFar < uint64(3) {
		t.Fatalf("Retries = %d, want at least budget+1 rounds", retriesSoFar)
	}
	p.run(401, 2000)
	if p.q[0].Retries <= retriesSoFar {
		t.Fatal("replaying stopped after budget exhaustion; delivery would never succeed")
	}
	// The region must still be quarantined: no ACK ever arrived.
	if p.pm.Read(0x100) != 0 {
		t.Fatal("region flushed without any peer ACK")
	}
}

// TestDuplicateAckSuppressed delivers the same bdry-ACK twice and checks the
// second is absorbed idempotently.
func TestDuplicateAckSuppressed(t *testing.T) {
	p := newRPair(t, Config{RetryTimeout: 50, RetryBudget: 3})
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	ack := noc.Message{Kind: noc.MsgBdryAck, Region: 1, From: 1, To: 0}
	p.q[0].OnMessage(5, ack)
	p.q[0].OnMessage(6, ack)
	if p.q[0].DupSuppressed != 1 {
		t.Fatalf("DupSuppressed = %d, want 1", p.q[0].DupSuppressed)
	}
	// The duplicate changed nothing: the region is exactly confirmed.
	if !p.q[0].canFlush(1) {
		t.Fatal("single ACK from the only peer should confirm the region")
	}
}

// TestReplayReACKsHeldAndCommittedRegions verifies the receiver side of the
// replay protocol: a controller re-ACKs a replay iff it has the boundary —
// including after the region committed locally — and stays silent otherwise,
// because a replay must never create boundary knowledge.
func TestReplayReACKsHeldAndCommittedRegions(t *testing.T) {
	p := newRPair(t, Config{RetryTimeout: 50, RetryBudget: 3})
	// Commit region 1 everywhere.
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(0, 40)
	if p.q[1].FlushID() != 2 {
		t.Fatalf("flushID = %d, want 2", p.q[1].FlushID())
	}
	// Replay for the committed region: must re-ACK.
	p.net = nil
	p.q[1].OnMessage(41, noc.Message{Kind: noc.MsgBdryReplay, Region: 1, From: 0, To: 1})
	if len(p.net) != 1 || p.net[0].Kind != noc.MsgBdryAck || p.net[0].Region != 1 || p.net[0].To != 0 {
		t.Fatalf("committed-region replay reply = %v, want one bdry-ACK to 0", p.net)
	}
	// Replay for a region whose boundary never arrived: must stay silent.
	p.net = nil
	p.q[1].OnMessage(42, noc.Message{Kind: noc.MsgBdryReplay, Region: 7, From: 0, To: 1})
	if len(p.net) != 0 {
		t.Fatalf("replay for an unseen boundary produced %v; replays must not create knowledge", p.net)
	}
	// Held-but-uncommitted region: must re-ACK.
	p.q[1].AcceptControl(0, 3)
	p.net = nil
	p.q[1].OnMessage(43, noc.Message{Kind: noc.MsgBdryReplay, Region: 3, From: 0, To: 1})
	if len(p.net) != 1 || p.net[0].Kind != noc.MsgBdryAck || p.net[0].Region != 3 {
		t.Fatalf("held-region replay reply = %v, want one bdry-ACK", p.net)
	}
}

// TestDegradedEagerPersistUndoAndCompaction drives a degraded queue: entries
// of any region flush eagerly with undo records; committing a region retires
// only that region's records; recovery rolls back the never-confirmed rest.
func TestDegradedEagerPersistUndoAndCompaction(t *testing.T) {
	p := newRPair(t, Config{RetryTimeout: 50, RetryBudget: 3})
	p.pm.Write(0x10, 0xAA)
	p.pm.Write(0x20, 0xBB)
	p.q[0].SetDegraded()
	if !p.q[0].Degraded() {
		t.Fatal("Degraded() false after SetDegraded")
	}
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x20, Val: 2, Region: 2})
	p.run(0, 20)
	if p.pm.Read(0x10) != 1 || p.pm.Read(0x20) != 2 {
		t.Fatalf("degraded mode did not eager-flush: %#x %#x", p.pm.Read(0x10), p.pm.Read(0x20))
	}
	if p.q[0].UndoWrites != 2 {
		t.Fatalf("UndoWrites = %d, want 2", p.q[0].UndoWrites)
	}
	// Region 1 becomes globally confirmed and commits; its undo record
	// retires but region 2's must survive the log compaction.
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(21, 80)
	if p.q[0].FlushID() != 2 {
		t.Fatalf("flushID = %d, want 2", p.q[0].FlushID())
	}
	if got := p.pm.Read(mem.UndoLogAddr(0, 0)); got != 1 {
		t.Fatalf("undo log count after commit = %d, want 1 (region 2's record)", got)
	}
	// Power failure now: recovery must revert region 2's eager write only.
	n := RecoverUndo(0, p.pm.Read, func(a, v uint64) { p.pm.Write(a, v) })
	if n != 1 {
		t.Fatalf("rolled back %d records, want 1", n)
	}
	if p.pm.Read(0x10) != 1 {
		t.Fatal("committed region's data was rolled back")
	}
	if p.pm.Read(0x20) != 0xBB {
		t.Fatalf("unconfirmed region's pre-image not restored: %#x", p.pm.Read(0x20))
	}
}

// TestBrokenDupAcksPrematureFlush proves the seeded bug is a real torn-region
// hazard: with counting ACK bookkeeping and three controllers, two ACKs from
// the same peer confirm a region that a third controller never acknowledged.
// The fixed per-peer-set bookkeeping absorbs the duplicate and keeps waiting.
func TestBrokenDupAcksPrematureFlush(t *testing.T) {
	mk := func(broken bool) *Queue {
		pm := mem.NewImage()
		return New(Config{ID: 0, NumMCs: 3, Entries: 8, Mode: Gated,
			PMWriteInterval: 1, BrokenDupAcks: broken},
			Sinks{
				PMWrite: func(a, v uint64) { pm.Write(a, v) },
				PMRead:  pm.Read,
				Send:    func(noc.Message) {},
			})
	}
	ack := noc.Message{Kind: noc.MsgBdryAck, Region: 1, From: 1, To: 0}

	q := mk(true)
	q.Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	q.OnMessage(0, ack)
	q.OnMessage(1, ack) // duplicate from the same peer double-counts
	if !q.canFlush(1) {
		t.Fatal("BrokenDupAcks did not let duplicates confirm the region")
	}

	q = mk(false)
	q.Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	q.OnMessage(0, ack)
	q.OnMessage(1, ack)
	if q.canFlush(1) {
		t.Fatal("fixed bookkeeping confirmed a region missing a peer's ACK")
	}
	if q.DupSuppressed != 1 {
		t.Fatalf("DupSuppressed = %d, want 1", q.DupSuppressed)
	}
	q.OnMessage(2, noc.Message{Kind: noc.MsgBdryAck, Region: 1, From: 2, To: 0})
	if !q.canFlush(1) {
		t.Fatal("region not confirmed after every peer acknowledged")
	}
}

// TestOverflowLifecycle exercises the §IV-D deadlock-escape state machine
// directly: overflow turns on exactly once per episode, the Deadlocks and
// UndoWrites counters track it, and the awaited boundary's arrival ends it.
func TestOverflowLifecycle(t *testing.T) {
	p := newPair(t, 2)
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x18, Val: 2, Region: 1})
	if p.q[0].InOverflow() {
		t.Fatal("overflow before any full reject")
	}
	p.q[0].Accept(0, Entry{Addr: 0x20, Val: 3, Region: 2})
	if !p.q[0].InOverflow() || p.q[0].Deadlocks != 1 {
		t.Fatalf("overflow=%v deadlocks=%d after trigger", p.q[0].InOverflow(), p.q[0].Deadlocks)
	}
	// Repeated rejects during the same episode must not re-count.
	p.q[0].Accept(0, Entry{Addr: 0x28, Val: 4, Region: 2})
	if p.q[0].Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d, want 1 per episode", p.q[0].Deadlocks)
	}
	p.run(0, 10) // escape path drains region 1 with undo logging
	if p.q[0].UndoWrites == 0 {
		t.Fatal("escape path flushed without undo logging")
	}
	// The awaited boundary arrives: the episode ends immediately.
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 9, Region: 1, Boundary: true})
	if p.q[0].InOverflow() {
		t.Fatal("overflow persisted past the awaited boundary's arrival")
	}
	p.q[1].AcceptControl(0, 1)
	p.run(11, 80)
	if p.q[0].FlushID() != 2 {
		t.Fatalf("flushID = %d after normal completion", p.q[0].FlushID())
	}
}
