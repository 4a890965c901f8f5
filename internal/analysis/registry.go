package analysis

// Registry is the full analyzer suite, in the order irlint runs and
// reports them. cmd/docscheck cross-checks this list against
// docs/static-analysis.md: an analyzer documented but not registered
// (or vice versa) fails CI.
var Registry = []*Analyzer{
	LockSafe,
	Metered,
	ErrMap,
	DetCore,
	ObsReg,
}

// ByName returns the registered analyzer with the given name, nil when
// absent.
func ByName(name string) *Analyzer {
	for _, a := range Registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}
