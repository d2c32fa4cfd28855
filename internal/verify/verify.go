package verify

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"acr/internal/bgp"
	"acr/internal/dataplane"
	"acr/internal/netcfg"
	"acr/internal/topo"
)

// Verdict is the result of checking one intent.
type Verdict struct {
	Intent Intent
	Pass   bool
	// Prefix is the originated prefix the intent's destination resolved
	// to (its control-plane dependency); invalid when none covers it.
	Prefix netip.Prefix
	// Flapping reports that the destination prefix failed to converge.
	Flapping bool
	// Traces holds one dataplane trace per control-plane phase for flow
	// intents (per phase and router for global intents, capped).
	Traces []*dataplane.TraceResult

	// why is what Reason renders: a code and its operands.
	why reason
}

// reason records why a verdict came out as it did, for Reason to render:
// most checks are of candidates whose report is read only for NumFailed.
type reason struct {
	code reasonCode
	// fail is the trace the text describes: the last failing phase's
	// trace of a flow intent, the last bad trace of a global one.
	fail *dataplane.TraceResult
	// delivered of phases phases delivered; looped reports a looping phase.
	delivered, phases int
	looped            bool
}

type reasonCode uint8

const (
	noReason reasonCode = iota
	unknownKind
	noInjectionPoint
	failedPhase   // the fail trace's own text
	notIsolated   // delivered in some phase
	flapping      // the covering prefix did not converge
	notOriginated // a global intent's prefix is not originated (passes)
	badTrace      // a global intent's bad trace, from its first router
)

// Reason explains the verdict: why it fails, or "prefix not originated"
// for a global intent that passes for that reason; "" otherwise. It is
// rendered on each call.
func (v *Verdict) Reason() string {
	w := v.why
	switch w.code {
	case unknownKind:
		return "unknown intent kind"
	case noInjectionPoint:
		return fmt.Sprintf("no injection point for source %s", v.Intent.Packet().Src)
	case failedPhase:
		return v.failReason()
	case notIsolated:
		return fmt.Sprintf("delivered in %d/%d phases, must be isolated", w.delivered, w.phases)
	case flapping:
		r := fmt.Sprintf("route flapping for %s; %d/%d phases deliver", v.Prefix, w.delivered, w.phases)
		if w.looped {
			r += "; " + v.failReason()
		}
		return r
	case notOriginated:
		return "prefix not originated"
	case badTrace:
		return "from " + w.fail.Path[0] + ": " + w.fail.Reason()
	}
	return ""
}

// failReason describes a flow intent's failing trace: a delivered one
// bypassed the waypoint, a looping one shows its path.
func (v *Verdict) failReason() string {
	tr := v.why.fail
	switch tr.Outcome {
	case dataplane.Delivered:
		return fmt.Sprintf("path %s bypasses waypoint %s", tr.PathString(), v.Intent.Via)
	case dataplane.Looped:
		return tr.Reason() + " (" + tr.PathString() + ")"
	}
	return tr.Reason()
}

// Lines returns every dataplane configuration line the verdict's traces
// executed.
func (v *Verdict) Lines() []netcfg.LineRef {
	var out []netcfg.LineRef
	for _, tr := range v.Traces {
		out = append(out, tr.Lines...)
	}
	return out
}

// Report aggregates verdicts for a whole specification.
type Report struct {
	Verdicts []Verdict
}

// NumFailed counts failing verdicts — the repair engine's fitness function
// (§5: "the fitness of an update is defined as the number of failed
// cases").
func (r *Report) NumFailed() int {
	n := 0
	for _, v := range r.Verdicts {
		if !v.Pass {
			n++
		}
	}
	return n
}

// Failed returns the failing verdicts.
func (r *Report) Failed() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.Pass {
			out = append(out, v)
		}
	}
	return out
}

// Passed returns the passing verdicts.
func (r *Report) Passed() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if v.Pass {
			out = append(out, v)
		}
	}
	return out
}

// ByID returns the verdict for the given intent ID, or nil.
func (r *Report) ByID(id string) *Verdict {
	for i := range r.Verdicts {
		if r.Verdicts[i].Intent.ID == id {
			return &r.Verdicts[i]
		}
	}
	return nil
}

// Summary renders a one-line-per-intent report.
func (r *Report) Summary() string {
	var sb strings.Builder
	for _, v := range r.Verdicts {
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%s  %s", status, v.Intent)
		if !v.Pass {
			fmt.Fprintf(&sb, "  (%s)", v.Reason())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Verify checks every intent against a simulated outcome.
func Verify(n *bgp.Net, out *bgp.Outcome, intents []Intent) *Report {
	rep := &Report{}
	for _, in := range intents {
		rep.Verdicts = append(rep.Verdicts, checkIntent(n, out, in, probeOf(n.Topo, in)))
	}
	return rep
}

// probe is what checking an intent reads besides the network state: its
// sampled packet and the router that packet is injected at ("" when no
// node owns the source). Both depend only on the intent and the topology.
type probe struct {
	pkt  dataplane.Packet
	from string
}

func probeOf(t *topo.Network, in Intent) probe {
	pkt := in.Packet()
	return probe{pkt: pkt, from: dataplane.InjectionPoint(t, pkt.Src)}
}

// coveringOutcome finds the originated prefix covering addr (longest
// match) among those out holds an outcome for, and its outcome. It scans
// the net's prefix list, a superset of out's keys.
func coveringOutcome(out *bgp.Outcome, addr netip.Addr) (netip.Prefix, *bgp.PrefixOutcome) {
	var best netip.Prefix
	var bestPO *bgp.PrefixOutcome
	for _, p := range out.Net.AllPrefixes() {
		if p.Contains(addr) && (!best.IsValid() || p.Bits() > best.Bits()) {
			if po, ok := out.ByPrefix[p]; ok {
				best, bestPO = p, po
			}
		}
	}
	return best, bestPO
}

func checkIntent(n *bgp.Net, out *bgp.Outcome, in Intent, pr probe) Verdict {
	switch in.Kind {
	case Reachability, Isolation, Waypoint:
		return checkFlow(n, out, in, pr)
	case LoopFree, BlackholeFree:
		return checkGlobal(n, out, in)
	}
	return Verdict{Intent: in, Pass: false, why: reason{code: unknownKind}}
}

// checkFlow traces a flow intent's packet in every phase of the outcome of
// the prefix covering its destination. The verdict reads nothing else: that
// outcome, the files of the routers the traces visit, and the topology.
func checkFlow(n *bgp.Net, out *bgp.Outcome, in Intent, pr probe) Verdict {
	v := Verdict{Intent: in}
	pkt, from := pr.pkt, pr.from
	if from == "" {
		v.Pass = in.Kind == Isolation
		v.why.code = noInjectionPoint
		return v
	}
	prefix, po := coveringOutcome(out, pkt.Dst)
	v.Prefix = prefix
	var phases []map[string]*bgp.Route
	if po != nil {
		v.Flapping = !po.Converged
		phases = po.Phases()
	} else {
		phases = []map[string]*bgp.Route{nil} // statics may still deliver
	}
	visitsVia := true
	w := reason{phases: len(phases)}
	for _, ph := range phases {
		tr := dataplane.Trace(n, ph, prefix, pkt, from)
		v.Traces = append(v.Traces, tr)
		switch tr.Outcome {
		case dataplane.Delivered:
			w.delivered++
			if in.Via != "" && !tr.Visits(in.Via) {
				visitsVia = false
				w.fail = tr
			}
		case dataplane.Looped:
			w.looped = true
			w.fail = tr
		default:
			w.fail = tr
		}
	}
	switch in.Kind {
	case Isolation:
		if w.delivered == 0 {
			v.Pass = true
		} else {
			w.code = notIsolated
		}
	case Reachability, Waypoint:
		switch {
		case v.Flapping:
			w.code = flapping
		case w.delivered != len(phases):
			w.code = failedPhase
		case in.Kind == Waypoint && !visitsVia:
			w.code = failedPhase
		default:
			v.Pass = true
		}
	}
	if !v.Pass {
		v.why = w
	}
	return v
}

// globalTraceCap bounds how many failing traces a global verdict retains.
const globalTraceCap = 4

func checkGlobal(n *bgp.Net, out *bgp.Outcome, in Intent) Verdict {
	v := Verdict{Intent: in}
	prefix := in.DstPrefix
	po := out.ByPrefix[prefix]
	v.Prefix = prefix
	if po == nil {
		// Nothing routes toward it: trivially loop-free; blackhole-freedom
		// is judged by reachability intents, not here.
		v.Pass = true
		v.why.code = notOriginated
		return v
	}
	v.Flapping = !po.Converged
	pkt := dataplane.SamplePacket(prefix, prefix) // src unused below
	v.Pass = true
	for _, ph := range po.Phases() {
		names := make([]string, 0, len(ph))
		for name := range ph {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tr := dataplane.Trace(n, ph, prefix, pkt, name)
			bad := (in.Kind == LoopFree && tr.Outcome == dataplane.Looped) ||
				(in.Kind == BlackholeFree && tr.Outcome == dataplane.Blackholed)
			if bad {
				if len(v.Traces) < globalTraceCap {
					v.Traces = append(v.Traces, tr)
				}
				v.Pass = false
				v.why = reason{code: badTrace, fail: tr}
			}
		}
	}
	return v
}
