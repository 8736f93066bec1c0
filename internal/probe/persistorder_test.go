package probe_test

import (
	"fmt"
	"strings"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/probe"
)

func flush(mc int, region, addr uint64) probe.Event {
	return probe.Event{Kind: probe.WPQFlush, Core: -1, MC: mc, Region: region, Addr: addr}
}

func TestPersistOrderRules(t *testing.T) {
	cases := []struct {
		name   string
		events []probe.Event
		want   string // substring of the violation; "" = ordered
	}{
		{"ordered", []probe.Event{
			flush(0, 1, 0x10),
			flush(1, 3, 0x40), // another controller may run ahead
			flush(0, 2, 0x18),
			{Kind: probe.WPQEnqueue, MC: 0, Region: 0}, // not a PM write
		}, ""},
		{"per-controller regression", []probe.Event{
			flush(0, 2, 0x10),
			flush(0, 1, 0x18),
		}, "controller 0 flushed region 1 after region 2"},
		{"per-address regression across controllers", []probe.Event{
			flush(0, 2, 0x10),
			flush(1, 1, 0x10),
		}, "address 0x10 written by region 1 after region 2"},
		{"out-of-range controller", []probe.Event{
			flush(5, 1, 0x10),
		}, "controller 5 out of range"},
		{"first violation kept", []probe.Event{
			flush(0, 3, 0x10),
			flush(0, 2, 0x18),
			flush(0, 1, 0x20),
		}, "PM write 1: controller 0 flushed region 2 after region 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			po := probe.NewPersistOrder(2)
			for _, e := range tc.events {
				po.Emit(e)
			}
			err := po.Err()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("ordered stream rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("violation accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// lockProg builds a multi-threaded locked-counter program: the canonical
// conflicting-access pattern of Fig. 4.
func lockProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("lk")
	b.Func("main")
	b.MovImm(3, 0x40000)
	b.MovImm(4, 0x40008)
	b.MovImm(7, 0)
	b.MovImm(8, 5)
	loop := b.NewBlock()
	b.LockAcquire(3, 0)
	b.Load(5, 4, 0)
	b.AddImm(5, 5, 1)
	b.Store(4, 0, 5)
	b.LockRelease(3, 0)
	b.AddImm(7, 7, 1)
	b.CmpLT(9, 7, 8)
	b.Branch(9, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runLockProg runs lockProg on threads cores under sch with a PersistOrder
// checker attached and returns the finished machine and the checker.
func runLockProg(t *testing.T, threads int, sch machine.Scheme) (*machine.System, *probe.PersistOrder) {
	t.Helper()
	res, err := compiler.Compile(lockProg(t), compiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = threads
	sys, err := machine.NewSystem(res.Prog, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	po := probe.NewPersistOrder(cfg.NumMCs)
	sys.SetProbeSink(po)
	if !sys.Run(10_000_000) {
		t.Fatal("run did not complete")
	}
	return sys, po
}

func TestPersistOrderLightWSPRunStaysOrdered(t *testing.T) {
	sys, po := runLockProg(t, 4, machine.Scheme{
		Name: "lightwsp", Instrumented: true, UsePersistPath: true,
		EntryBytes: 8, GatedWPQ: true, UseDRAMCache: true,
	})
	// The checker saw every PM write the machine made.
	if want := fmt.Sprintf("trace: %d PM writes across ", sys.Stats.PersistFlushed); sys.Stats.PersistFlushed == 0 ||
		!strings.HasPrefix(po.Summary(), want) {
		t.Fatalf("summary %q, want prefix %q (and a nonzero count)", po.Summary(), want)
	}
	// Every address, the shared counter included, was written by
	// non-decreasing regions — the happens-before order of Fig. 4.
	if err := po.Err(); err != nil {
		t.Fatalf("LRPO invariant violated on a real run: %v", err)
	}
}

func TestPersistOrderCatchesCWSPSpeculation(t *testing.T) {
	// cWSP's FIFO speculation flushes out of region order by design —
	// that is exactly why it needs undo logging. The checker should catch
	// it on a contended run.
	_, po := runLockProg(t, 8, machine.Scheme{
		Name: "cwsp", Instrumented: true, StripCheckpoints: true,
		UsePersistPath: true, EntryBytes: 8, UseDRAMCache: true,
	})
	if po.Err() == nil {
		t.Skip("speculation happened to stay ordered on this run")
	}
}
