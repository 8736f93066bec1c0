package machine

// FastForwardScans reports how many next-event scans the run loop has made.
// Tests read it beside FastForwardStats, whose signature stays as it is.
func (s *System) FastForwardScans() uint64 { return s.ffScans }
