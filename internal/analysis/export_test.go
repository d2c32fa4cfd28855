package analysis

import "net/netip"

// ComponentPrefixes returns the universe prefixes the analyzer scopes a
// component-wide change on dev to.
func (a *ImpactAnalyzer) ComponentPrefixes(dev string) map[netip.Prefix]bool {
	return a.compPrefixes(dev)
}
