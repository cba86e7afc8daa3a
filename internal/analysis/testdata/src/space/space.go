// Package space is a fixture twin of the information space.
package space

// Space is the information space; Change one capability change.
type (
	Space  struct{ landed []Change }
	Change struct{ Rel string }
)

// ApplyChange lands c: the commit point of a capability change.
func (s *Space) ApplyChange(c Change) { s.landed = append(s.landed, c) }
