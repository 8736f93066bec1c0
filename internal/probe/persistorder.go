package probe

import "fmt"

// PersistOrder checks LightWSP's persist-ordering invariants (DESIGN.md
// invariant 2) over a run's WPQFlush events — every WPQ→PM write — as they
// are emitted:
//
//   - per controller, the region IDs of flushed entries never decrease
//     (the gated WPQ opens quarantines strictly in flush-ID order), and
//   - per address, region IDs never decrease across controllers either
//     (same-address conflicts are homed on one controller, so cross-region
//     write order is preserved exactly where it matters).
//
// It keeps the first violation and buffers no events, so it checks a run of
// any length. The cWSP baseline's speculative FIFO flushing visibly
// violates the per-controller rule, which is precisely the behaviour its
// undo logging exists to repair.
type PersistOrder struct {
	perMC   []uint64
	perAddr map[uint64]uint64
	regions map[uint64]struct{}
	writes  uint64
	err     error
}

// NewPersistOrder returns a checker for a machine with numMCs controllers.
func NewPersistOrder(numMCs int) *PersistOrder {
	return &PersistOrder{
		perMC:   make([]uint64, numMCs),
		perAddr: map[uint64]uint64{},
		regions: map[uint64]struct{}{},
	}
}

// Emit implements Sink.
func (p *PersistOrder) Emit(e Event) {
	if e.Kind != WPQFlush {
		return
	}
	i := p.writes
	p.writes++
	p.regions[e.Region] = struct{}{}
	if p.err != nil {
		return
	}
	if e.MC < 0 || e.MC >= len(p.perMC) {
		p.err = fmt.Errorf("PM write %d: controller %d out of range", i, e.MC)
		return
	}
	if e.Region < p.perMC[e.MC] {
		p.err = fmt.Errorf("PM write %d: controller %d flushed region %d after region %d",
			i, e.MC, e.Region, p.perMC[e.MC])
		return
	}
	p.perMC[e.MC] = e.Region
	if last := p.perAddr[e.Addr]; e.Region < last {
		p.err = fmt.Errorf("PM write %d: address %#x written by region %d after region %d",
			i, e.Addr, e.Region, last)
		return
	}
	p.perAddr[e.Addr] = e.Region
}

// Err returns the first ordering violation seen, or nil.
func (p *PersistOrder) Err() error { return p.err }

// Summary renders a one-line digest for logs.
func (p *PersistOrder) Summary() string {
	return fmt.Sprintf("trace: %d PM writes across %d regions", p.writes, len(p.regions))
}
