package analysis

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"acr/internal/netcfg"
)

// TestTypedKeysPartitionAsText holds the typed identities the impact diff
// and the prefix-list consensus compare to the formatted text they
// replaced: two constructs are equal exactly when their texts are, over
// value pools with invalid, unmasked, 4-in-6 and IPv6 prefixes, and a
// finding renders a missing entry as it did.
func TestTypedKeysPartitionAsText(t *testing.T) {
	prefixes := []netip.Prefix{{}, netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.1/8"),
		netip.MustParsePrefix("10.0.0.0/16"), netip.MustParsePrefix("::ffff:10.0.0.0/104"), netip.MustParsePrefix("2001:db8::/32"),
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 99)} // invalid, yet not the zero Prefix
	addrs := []netip.Addr{{}, netip.MustParseAddr("10.1.1.2"), netip.MustParseAddr("::ffff:10.1.1.2"), netip.MustParseAddr("fe80::1%eth0")}

	var entries []*netcfg.PrefixList
	for _, idx := range []int{10, 20} {
		for _, permit := range []bool{true, false} {
			for _, p := range prefixes {
				for _, ge := range []int{0, 24} {
					for _, le := range []int{0, 32} {
						entries = append(entries, &netcfg.PrefixList{Index: idx, Permit: permit, Prefix: p, GE: ge, LE: le})
					}
				}
			}
		}
	}
	entryText := func(e *netcfg.PrefixList) string {
		return fmt.Sprintf("%d|%v|%s|%d|%d", e.Index, e.Permit, e.Prefix, e.GE, e.LE)
	}
	contentText := func(e *netcfg.PrefixList) string {
		action := "deny"
		if e.Permit {
			action = "permit"
		}
		return fmt.Sprintf("%s %s ge=%d le=%d", action, e.Prefix.Masked(), e.GE, e.LE)
	}
	for _, a := range entries {
		if got, want := contentOf(a).String(), contentText(a); got != want {
			t.Errorf("entry content renders %q, want %q", got, want)
		}
		for _, b := range entries {
			if typed, text := identityOf(a) == identityOf(b), entryText(a) == entryText(b); typed != text {
				t.Errorf("entries %q and %q: identities equal %v, texts equal %v", entryText(a), entryText(b), typed, text)
			}
			if typed, text := contentOf(a) == contentOf(b), contentText(a) == contentText(b); typed != text {
				t.Errorf("entries %q and %q: contents equal %v, texts equal %v", contentText(a), contentText(b), typed, text)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	pick := func(n int) int { return rng.Intn(n) }
	rule := func() *netcfg.PBRRule {
		r := &netcfg.PBRRule{Index: 1 + pick(2), Permit: pick(2) == 0}
		if i := pick(len(prefixes) + 1); i > 0 {
			r.MatchSource = &netcfg.PrefixMatch{Prefix: prefixes[i-1]}
		}
		if i := pick(len(prefixes) + 1); i > 0 {
			r.MatchDest = &netcfg.PrefixMatch{Prefix: prefixes[i-1]}
		}
		if i := pick(3); i > 0 {
			r.MatchProto = &netcfg.ProtoMatch{Proto: []string{"tcp", "any"}[i-1]}
		}
		if pick(2) == 0 {
			r.MatchDstPort = &netcfg.PortMatch{Port: uint16(80 + pick(2))}
		}
		if i := pick(len(addrs) + 1); i > 0 {
			r.ApplyNextHop = &netcfg.NextHopApply{NextHop: addrs[i-1]}
		}
		if pick(3) == 0 {
			r.ApplyDrop = &netcfg.DropApply{}
		}
		return r
	}
	section := func() []*netcfg.PBRPolicy {
		var out []*netcfg.PBRPolicy
		for i := pick(3); i > 0; i-- {
			p := &netcfg.PBRPolicy{Name: []string{"P", "Q"}[pick(2)]}
			for j := pick(3); j > 0; j-- {
				p.Rules = append(p.Rules, rule())
			}
			out = append(out, p)
		}
		return out
	}
	pbrText := func(ps []*netcfg.PBRPolicy) string {
		var sb strings.Builder
		for _, p := range ps {
			fmt.Fprintf(&sb, "pbr %q\n", p.Name)
			for _, r := range p.Rules {
				fmt.Fprintf(&sb, " rule %d permit=%v", r.Index, r.Permit)
				if r.MatchSource != nil {
					fmt.Fprintf(&sb, " src=%s", r.MatchSource.Prefix)
				}
				if r.MatchDest != nil {
					fmt.Fprintf(&sb, " dst=%s", r.MatchDest.Prefix)
				}
				if r.MatchProto != nil {
					fmt.Fprintf(&sb, " proto=%s", r.MatchProto.Proto)
				}
				if r.MatchDstPort != nil {
					fmt.Fprintf(&sb, " port=%d", r.MatchDstPort.Port)
				}
				if r.ApplyNextHop != nil {
					fmt.Fprintf(&sb, " nh=%s", r.ApplyNextHop.NextHop)
				}
				if r.ApplyDrop != nil {
					sb.WriteString(" drop")
				}
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	// near copies a with one field of one rule, or one policy name,
	// redrawn: equal to a or different in exactly that field.
	near := func(a []*netcfg.PBRPolicy) []*netcfg.PBRPolicy {
		b := make([]*netcfg.PBRPolicy, len(a))
		for i, p := range a {
			cp := *p
			cp.Rules = append([]*netcfg.PBRRule(nil), p.Rules...)
			b[i] = &cp
		}
		if len(b) == 0 {
			return b
		}
		p := b[pick(len(b))]
		if len(p.Rules) == 0 {
			p.Name = []string{"P", "Q"}[pick(2)]
			return b
		}
		j := pick(len(p.Rules))
		r, fresh := *p.Rules[j], rule()
		switch pick(8) {
		case 0:
			r.Index = fresh.Index
		case 1:
			r.Permit = fresh.Permit
		case 2:
			r.MatchSource = fresh.MatchSource
		case 3:
			r.MatchDest = fresh.MatchDest
		case 4:
			r.MatchProto = fresh.MatchProto
		case 5:
			r.MatchDstPort = fresh.MatchDstPort
		case 6:
			r.ApplyNextHop = fresh.ApplyNextHop
		default:
			r.ApplyDrop = fresh.ApplyDrop
		}
		p.Rules[j] = &r
		return b
	}
	equalPairs := 0
	for i := 0; i < 20000; i++ {
		a := section()
		b := near(a)
		if typed, text := eqPBR(a, b), pbrText(a) == pbrText(b); typed != text {
			t.Fatalf("PBR sections equal %v, texts equal %v:\n%s---\n%s", typed, text, pbrText(a), pbrText(b))
		} else if typed && len(a) > 0 {
			equalPairs++
		}
	}
	if equalPairs == 0 {
		t.Error("no two non-empty PBR sections compared equal; the check is vacuous")
	}

	ifaceText := func(i *netcfg.Interface) string { return fmt.Sprintf("%s|%s", i.Addr, i.PBRPolicy) }
	for _, pa := range prefixes {
		for _, pb := range prefixes {
			for _, binding := range [][2]string{{"", ""}, {"P", "P"}, {"P", ""}} {
				a := &netcfg.Interface{Addr: pa, PBRPolicy: binding[0]}
				b := &netcfg.Interface{Addr: pb, PBRPolicy: binding[1]}
				typed := samePrefix(a.Addr, b.Addr) && a.PBRPolicy == b.PBRPolicy
				if text := ifaceText(a) == ifaceText(b); typed != text {
					t.Errorf("interfaces %q and %q: equal %v, texts equal %v", ifaceText(a), ifaceText(b), typed, text)
				}
			}
		}
	}
}
