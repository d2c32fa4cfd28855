// Package verify checks operator intents against simulated network
// behavior. It provides the specification language of §4.1 of the paper
// (reachability, isolation, waypointing, loop-freedom, blackhole-freedom),
// test generation by sampling one packet per property's header space, a
// full verifier, and an incremental verifier in the mold of DNA
// [Zhang et al., NSDI '22]: after a configuration change, only the
// intents whose dependencies (prefixes and dataplane lines) are touched
// are re-verified, and only the affected prefixes are re-simulated.
package verify

import (
	"fmt"
	"net/netip"

	"acr/internal/dataplane"
)

// IntentKind enumerates property types.
type IntentKind uint8

// Intent kinds.
const (
	// Reachability: packets from SrcPrefix must reach DstPrefix, and the
	// destination's route must be stable (a flapping route violates the
	// intent even in phases where delivery succeeds).
	Reachability IntentKind = iota
	// Isolation: packets from SrcPrefix must NOT reach DstPrefix in any
	// control-plane phase.
	Isolation
	// Waypoint: packets from SrcPrefix to DstPrefix must traverse router
	// Via (and be delivered).
	Waypoint
	// LoopFree: no router's forwarding toward Prefix may loop, in any
	// phase.
	LoopFree
	// BlackholeFree: no router holding a route toward Prefix may blackhole
	// packets, in any phase.
	BlackholeFree
)

// String names the kind.
func (k IntentKind) String() string {
	switch k {
	case Reachability:
		return "reachability"
	case Isolation:
		return "isolation"
	case Waypoint:
		return "waypoint"
	case LoopFree:
		return "loop-free"
	case BlackholeFree:
		return "blackhole-free"
	}
	return "unknown"
}

// Intent is one operator property. Flow intents (Reachability, Isolation,
// Waypoint) use SrcPrefix/DstPrefix and optionally Proto/DstPort to narrow
// the header space; per-prefix intents (LoopFree, BlackholeFree) use
// DstPrefix alone.
type Intent struct {
	ID   string
	Kind IntentKind

	SrcPrefix netip.Prefix
	DstPrefix netip.Prefix
	Via       string // Waypoint only

	Proto   string // defaults to "tcp"
	DstPort uint16 // defaults to 80
}

// String renders the intent for reports.
func (i Intent) String() string {
	switch i.Kind {
	case Waypoint:
		return fmt.Sprintf("%s[%s]: %s -> %s via %s", i.Kind, i.ID, i.SrcPrefix, i.DstPrefix, i.Via)
	case LoopFree, BlackholeFree:
		return fmt.Sprintf("%s[%s]: %s", i.Kind, i.ID, i.DstPrefix)
	default:
		return fmt.Sprintf("%s[%s]: %s -> %s", i.Kind, i.ID, i.SrcPrefix, i.DstPrefix)
	}
}

// Packet samples the representative test packet from the intent's header
// space — the paper's test-generation approach (§4.1): "For each property,
// we sample a packet from its header space as a test."
func (i Intent) Packet() dataplane.Packet {
	pkt := dataplane.SamplePacket(i.SrcPrefix, i.DstPrefix)
	if i.Proto != "" {
		pkt.Proto = i.Proto
	}
	if i.DstPort != 0 {
		pkt.DstPort = i.DstPort
	}
	return pkt
}

// ReachIntent is a convenience constructor.
func ReachIntent(id string, src, dst netip.Prefix) Intent {
	return Intent{ID: id, Kind: Reachability, SrcPrefix: src, DstPrefix: dst}
}

// IsolationIntent is a convenience constructor.
func IsolationIntent(id string, src, dst netip.Prefix) Intent {
	return Intent{ID: id, Kind: Isolation, SrcPrefix: src, DstPrefix: dst}
}

// WaypointIntent is a convenience constructor.
func WaypointIntent(id string, src, dst netip.Prefix, via string) Intent {
	return Intent{ID: id, Kind: Waypoint, SrcPrefix: src, DstPrefix: dst, Via: via}
}

// LoopFreeIntent is a convenience constructor.
func LoopFreeIntent(id string, p netip.Prefix) Intent {
	return Intent{ID: id, Kind: LoopFree, DstPrefix: p}
}

// BlackholeFreeIntent is a convenience constructor.
func BlackholeFreeIntent(id string, p netip.Prefix) Intent {
	return Intent{ID: id, Kind: BlackholeFree, DstPrefix: p}
}
