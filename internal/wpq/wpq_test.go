package wpq

import (
	"testing"

	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
)

// pair wires two gated queues over synchronous message exchange and a shared
// PM image, the standard 2-MC test fixture.
type pair struct {
	pm      *mem.Image
	q       [2]*Queue
	net     []noc.Message // pending async messages
	flushed []Entry
}

func newPair(t *testing.T, entries int) *pair {
	t.Helper()
	p := &pair{pm: mem.NewImage()}
	for i := 0; i < 2; i++ {
		i := i
		p.q[i] = New(Config{
			ID: i, NumMCs: 2, Entries: entries, Mode: Gated, PMWriteInterval: 1,
		}, Sinks{
			PMWrite: func(a, v uint64) { p.pm.Write(a, v) },
			PMRead:  func(a uint64) uint64 { return p.pm.Read(a) },
			Send:    func(m noc.Message) { p.net = append(p.net, m) },
			OnFlush: func(e Entry) { p.flushed = append(p.flushed, e) },
		})
	}
	return p
}

// pump delivers queued messages and ticks both queues.
func (p *pair) pump(now uint64) {
	msgs := p.net
	p.net = nil
	for _, m := range msgs {
		p.q[m.To].OnMessage(now, m)
	}
	for i := range p.q {
		p.q[i].Tick(now)
	}
}

func (p *pair) run(from, to uint64) {
	for c := from; c <= to; c++ {
		p.pump(c)
	}
}

func TestGatedQuarantineUntilBoundary(t *testing.T) {
	p := newPair(t, 8)
	p.q[0].Accept(0, Entry{Addr: 0x100, Val: 7, Region: 1})
	p.run(0, 50)
	if p.pm.Read(0x100) != 0 {
		t.Fatal("entry flushed before its boundary arrived")
	}
	// Boundary reaches both controllers (data at MC0, control at MC1).
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 42, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(51, 120)
	if p.pm.Read(0x100) != 7 {
		t.Fatal("entry not flushed after boundary + ACKs")
	}
	if p.q[0].FlushID() != 2 || p.q[1].FlushID() != 2 {
		t.Fatalf("flush IDs = %d,%d want 2,2", p.q[0].FlushID(), p.q[1].FlushID())
	}
}

func TestRegionOrderAcrossMCs(t *testing.T) {
	// Region 2's stores arrive at MC1 before region 1 even has its
	// boundary (NUMA skew): they must not flush until region 1 commits.
	p := newPair(t, 8)
	p.q[1].Accept(0, Entry{Addr: 0x200, Val: 9, Region: 2})
	p.q[1].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 2, Boundary: true})
	p.q[0].AcceptControl(0, 2)
	p.run(0, 60)
	if p.pm.Read(0x200) != 0 {
		t.Fatal("younger region flushed before older committed (LRPO violation)")
	}
	// Now region 1 arrives and commits; then region 2 may flush.
	p.q[0].Accept(0, Entry{Addr: 0x100, Val: 5, Region: 1})
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(1, mem.CkptSlotPC), Val: 2, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(61, 200)
	if p.pm.Read(0x100) != 5 || p.pm.Read(0x200) != 9 {
		t.Fatalf("final PM wrong: %#x %#x", p.pm.Read(0x100), p.pm.Read(0x200))
	}
	if p.q[0].FlushID() != 3 {
		t.Fatalf("flushID = %d, want 3", p.q[0].FlushID())
	}
	// Verify order: region 1's store flushed before region 2's.
	var i1, i2 = -1, -1
	for i, e := range p.flushed {
		if e.Addr == 0x100 {
			i1 = i
		}
		if e.Addr == 0x200 {
			i2 = i
		}
	}
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Fatalf("flush order violated: %v", p.flushed)
	}
}

func TestEmptyRegionCommits(t *testing.T) {
	// A region with no stores at either MC (e.g. all checkpoint slots on
	// one MC) must still commit so the flush ID advances.
	p := newPair(t, 8)
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(0, 100)
	if p.q[0].FlushID() != 2 || p.q[1].FlushID() != 2 {
		t.Fatalf("flush IDs = %d,%d", p.q[0].FlushID(), p.q[1].FlushID())
	}
}

func TestSearchCAM(t *testing.T) {
	p := newPair(t, 8)
	p.q[0].Accept(0, Entry{Addr: 0x300, Val: 1, Region: 1})
	if !p.q[0].Search(0x300) {
		t.Fatal("CAM miss on quarantined entry")
	}
	if p.q[0].Search(0x308) {
		t.Fatal("CAM false positive")
	}
	if p.q[0].CAMHits != 1 || p.q[0].CAMSearches != 2 {
		t.Fatalf("CAM stats = %d/%d", p.q[0].CAMHits, p.q[0].CAMSearches)
	}
}

func TestFullRejectAndDeadlockDetection(t *testing.T) {
	p := newPair(t, 2)
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x18, Val: 2, Region: 1})
	// Full, and no boundary for flushID=1 received: deadlock.
	if p.q[0].Accept(0, Entry{Addr: 0x20, Val: 3, Region: 2}) {
		t.Fatal("full queue accepted an entry")
	}
	if !p.q[0].InOverflow() {
		t.Fatal("deadlock not detected")
	}
	if p.q[0].Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d", p.q[0].Deadlocks)
	}
}

func TestOverflowEscapeUndoLogsAndRecovers(t *testing.T) {
	p := newPair(t, 2)
	p.pm.Write(0x10, 0xAA) // pre-image
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x18, Val: 2, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x20, Val: 3, Region: 2}) // triggers overflow
	p.run(0, 30)
	// The escape path flushed region 1's entries with undo logging.
	if p.pm.Read(0x10) != 1 || p.pm.Read(0x18) != 2 {
		t.Fatalf("overflow did not flush: %#x %#x", p.pm.Read(0x10), p.pm.Read(0x18))
	}
	if p.q[0].UndoWrites != 2 {
		t.Fatalf("UndoWrites = %d", p.q[0].UndoWrites)
	}
	// Power failure before the boundary arrives: recovery must restore
	// the pre-images.
	n := RecoverUndo(0, p.pm.Read, func(a, v uint64) { p.pm.Write(a, v) })
	if n != 2 {
		t.Fatalf("rolled back %d records", n)
	}
	if p.pm.Read(0x10) != 0xAA || p.pm.Read(0x18) != 0 {
		t.Fatalf("rollback wrong: %#x %#x", p.pm.Read(0x10), p.pm.Read(0x18))
	}
	// Rollback is idempotent once the log is cleared.
	if RecoverUndo(0, p.pm.Read, func(a, v uint64) { p.pm.Write(a, v) }) != 0 {
		t.Fatal("second rollback found records")
	}
}

func TestOverflowCommitClearsUndoLog(t *testing.T) {
	p := newPair(t, 2)
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x18, Val: 2, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x20, Val: 3, Region: 2}) // overflow
	p.run(0, 30)
	// The boundary finally arrives; the region commits normally and the
	// undo log must be invalidated.
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 9, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(31, 120)
	if p.q[0].FlushID() != 2 {
		t.Fatalf("flushID = %d", p.q[0].FlushID())
	}
	if got := p.pm.Read(mem.UndoLogAddr(0, 0)); got != 0 {
		t.Fatalf("undo log not invalidated: count = %d", got)
	}
	if RecoverUndo(0, p.pm.Read, func(a, v uint64) { p.pm.Write(a, v) }) != 0 {
		t.Fatal("cleared log still rolled back")
	}
	if p.pm.Read(0x10) != 1 {
		t.Fatal("committed data lost")
	}
}

func TestOverflowDeclinesOtherRegions(t *testing.T) {
	p := newPair(t, 2)
	p.q[0].Accept(0, Entry{Addr: 0x10, Val: 1, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x18, Val: 2, Region: 1})
	p.q[0].Accept(0, Entry{Addr: 0x20, Val: 3, Region: 2}) // overflow on
	p.run(0, 10)                                           // frees room via escape flush
	if p.q[0].Accept(0, Entry{Addr: 0x28, Val: 4, Region: 2}) {
		t.Fatal("overflow mode accepted a younger region's store")
	}
	if !p.q[0].Accept(0, Entry{Addr: 0x30, Val: 5, Region: 1}) {
		t.Fatal("overflow mode declined the persisting region's store")
	}
}

func TestFIFOModeFlushesInArrivalOrder(t *testing.T) {
	pm := mem.NewImage()
	var flushed []uint64
	q := New(Config{ID: 0, NumMCs: 1, Entries: 4, Mode: FIFO, PMWriteInterval: 2},
		Sinks{
			PMWrite: func(a, v uint64) { pm.Write(a, v) },
			PMRead:  pm.Read,
			Send:    func(noc.Message) {},
			OnFlush: func(e Entry) { flushed = append(flushed, e.Addr) },
		})
	q.Accept(0, Entry{Addr: 0x10, Val: 1, Region: 5})
	q.Accept(0, Entry{Addr: 0x18, Val: 2, Region: 3})
	for c := uint64(0); c < 10; c++ {
		q.Tick(c)
	}
	if len(flushed) != 2 || flushed[0] != 0x10 || flushed[1] != 0x18 {
		t.Fatalf("FIFO flush order = %v", flushed)
	}
	if pm.Read(0x10) != 1 || pm.Read(0x18) != 2 {
		t.Fatal("FIFO data not in PM")
	}
}

func TestFIFOWriteExtraSlowsFlush(t *testing.T) {
	mk := func(extra uint64) uint64 {
		pm := mem.NewImage()
		q := New(Config{ID: 0, NumMCs: 1, Entries: 16, Mode: FIFO, PMWriteInterval: 2, PMWriteExtra: extra},
			Sinks{PMWrite: func(a, v uint64) { pm.Write(a, v) }, PMRead: pm.Read, Send: func(noc.Message) {}})
		for i := 0; i < 8; i++ {
			q.Accept(0, Entry{Addr: uint64(i * 8), Val: 1, Region: 1})
		}
		var done uint64
		for c := uint64(0); c < 1000; c++ {
			q.Tick(c)
			if q.Empty() && done == 0 {
				done = c
			}
		}
		return done
	}
	fast, slow := mk(0), mk(30)
	if slow <= fast {
		t.Fatalf("undo-delay did not slow flush: %d vs %d", fast, slow)
	}
}

func TestDrainCommittableOnFailure(t *testing.T) {
	p := newPair(t, 8)
	// Region 1 fully delivered (boundary at both MCs), region 2 only has
	// data, no boundary.
	p.q[0].Accept(0, Entry{Addr: 0x100, Val: 5, Region: 1})
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.q[1].Accept(0, Entry{Addr: 0x200, Val: 9, Region: 2})
	// Deliver pending bdry-ACKs synchronously, then drain.
	for _, m := range p.net {
		p.q[m.To].OnMessage(100, m)
	}
	p.net = nil
	exchange := func(m noc.Message) { p.q[m.To].OnMessage(100, m) }
	for {
		progress := false
		for i := range p.q {
			progress = p.q[i].DrainStep(0, exchange) || progress
		}
		if !progress {
			break
		}
	}
	d0, d1 := p.q[0].Discard(), p.q[1].Discard()
	if p.pm.Read(0x100) != 5 {
		t.Fatal("persisted region lost on failure")
	}
	if p.pm.Read(0x200) != 0 {
		t.Fatal("unpersisted region leaked to PM")
	}
	if d0 != 0 || d1 != 1 {
		t.Fatalf("discarded %d,%d want 0,1", d0, d1)
	}
}

func TestMaxOccupancyTracked(t *testing.T) {
	p := newPair(t, 8)
	for i := 0; i < 5; i++ {
		p.q[0].Accept(0, Entry{Addr: uint64(i * 8), Val: 1, Region: 1})
	}
	if p.q[0].MaxOccupancy != 5 {
		t.Fatalf("MaxOccupancy = %d", p.q[0].MaxOccupancy)
	}
}

func TestFIFOModeIgnoresControlAndMessages(t *testing.T) {
	pm := mem.NewImage()
	q := New(Config{ID: 0, NumMCs: 2, Entries: 4, Mode: FIFO, PMWriteInterval: 1},
		Sinks{PMWrite: func(a, v uint64) { pm.Write(a, v) }, PMRead: pm.Read,
			Send: func(noc.Message) { t.Fatal("FIFO mode sent a protocol message") }})
	q.AcceptControl(0, 5)
	q.OnMessage(0, noc.Message{Kind: noc.MsgBdryAck, Region: 5, From: 1, To: 0})
	q.Accept(0, Entry{Addr: 0x10, Val: 1, Region: 5})
	for c := uint64(0); c < 5; c++ {
		q.Tick(c)
	}
	if pm.Read(0x10) != 1 {
		t.Fatal("FIFO flush failed")
	}
}

func TestStaleMessagesIgnored(t *testing.T) {
	p := newPair(t, 8)
	// Commit region 1 fully.
	p.q[0].Accept(0, Entry{Addr: mem.CkptAddr(0, mem.CkptSlotPC), Val: 1, Region: 1, Boundary: true})
	p.q[1].AcceptControl(0, 1)
	p.run(0, 60)
	if p.q[0].FlushID() != 2 {
		t.Fatalf("flushID = %d", p.q[0].FlushID())
	}
	// A straggler ACK for region 1 must not corrupt bookkeeping.
	p.q[0].OnMessage(61, noc.Message{Kind: noc.MsgFlushAck, Region: 1, From: 1, To: 0})
	p.q[0].OnMessage(61, noc.Message{Kind: noc.MsgBdryAck, Region: 1, From: 1, To: 0})
	p.run(61, 80)
	if p.q[0].FlushID() != 2 {
		t.Fatalf("stale message moved flushID to %d", p.q[0].FlushID())
	}
}
