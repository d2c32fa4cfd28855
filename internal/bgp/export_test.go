package bgp

// Reverse exposes a session's reverse view to the external tests.
func (s *Session) Reverse() *Session { return s.reverse }
