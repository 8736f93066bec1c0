package machine

// SetNaiveStepper switches the machine to the reference per-cycle stepper
// (true) or the event/epoch fast path (false, the default). The two are
// byte-identical in every observable — final PM image, stats, probe event
// stream; the naive stepper exists as the equivalence oracle.
func (s *System) SetNaiveStepper(v bool) { s.naiveStep = v }

// FastForwardScans reports how many next-event scans the run loop has made.
// Tests read it beside FastForwardStats, whose signature stays as it is.
func (s *System) FastForwardScans() uint64 { return s.ffScans }
