package analysis

// Analyzers returns the full evevet suite in its canonical order: one
// analyzer per engine invariant plus the documentation contract.
func Analyzers() []*Analyzer {
	return []*Analyzer{VersionMut, CowCheck, CtxFlow, ErrLink, DocCheck}
}
