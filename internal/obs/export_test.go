package obs

// Add accumulates o into s.
func (s *WireStats) Add(o WireStats) {
	s.Conns += o.Conns
	s.Disconnects += o.Disconnects
	s.Redials += o.Redials
	s.FramesIn += o.FramesIn
	s.FramesOut += o.FramesOut
	s.Writes += o.Writes
	s.Reads += o.Reads
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.Errors += o.Errors
	s.Timeouts += o.Timeouts
	s.Rejected += o.Rejected
}
