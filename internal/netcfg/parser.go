package netcfg

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
)

// ParseError describes one syntactic problem found while parsing.
type ParseError struct {
	Ref LineRef
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Ref, e.Msg) }

// Parse parses a Config into its typed AST. It returns the File and an
// error joining every ParseError found; the File is still usable for the
// statements that parsed cleanly (analyses want to keep going on partially
// broken configs — a broken line is itself a repair candidate).
func Parse(c *Config) (*File, error) {
	p := &parser{cfg: c, file: &File{Device: c.Device, NumLines: c.NumLines()}}
	p.run()
	p.file.index()
	if len(p.errs) == 0 {
		return p.file, nil
	}
	errs := make([]error, len(p.errs))
	for i, e := range p.errs {
		errs[i] = e
	}
	return p.file, errors.Join(errs...)
}

// MustParse parses and panics on error; for tests and generators whose
// output is well-formed by construction.
func MustParse(c *Config) *File {
	f, err := Parse(c)
	if err != nil {
		panic(fmt.Sprintf("netcfg: MustParse(%s): %v", c.Device, err))
	}
	return f
}

type parser struct {
	cfg  *Config
	file *File
	errs []*ParseError
	pos  int // 0-based index into lines
	// top and body are reused for the fields of a top-level line and of a
	// block's body line: neither outlives the line it splits.
	top, body []string
}

// split returns the whitespace-separated fields of s, as strings.Fields
// does, in *buf's storage.
func split(buf *[]string, s string) []string {
	f := (*buf)[:0]
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			f = append(f, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		f = append(f, s[start:])
	}
	*buf = f
	return f
}

func (p *parser) errorf(line int, format string, args ...any) {
	p.errs = append(p.errs, &ParseError{
		Ref: LineRef{Device: p.cfg.Device, Line: line},
		Msg: fmt.Sprintf(format, args...),
	})
}

// indent returns the indentation level (number of leading spaces) and the
// trimmed content of the 0-based line i.
func (p *parser) indent(i int) (int, string) {
	raw := p.cfg.lines[i]
	trimmed := strings.TrimLeft(raw, " ")
	return len(raw) - len(trimmed), strings.TrimRight(trimmed, " ")
}

func skippable(s string) bool {
	// TrimSpace, not just the == "" check: indent() only strips spaces, so
	// content may still be all tabs/form-feeds — on which strings.Fields
	// returns an empty slice and the keyword dispatch would index past it.
	return strings.TrimSpace(s) == "" || strings.HasPrefix(s, "#")
}

func (p *parser) run() {
	n := p.cfg.NumLines()
	for p.pos < n {
		ind, content := p.indent(p.pos)
		line := p.pos + 1
		if skippable(content) {
			p.pos++
			continue
		}
		if ind != 0 {
			p.errorf(line, "unexpected indentation at top level")
			p.pos++
			continue
		}
		fields := split(&p.top, content)
		switch fields[0] {
		case "bgp":
			p.parseBGP(fields, line)
		case "route-policy":
			p.parseRoutePolicy(fields, line)
		case "ip":
			p.parseIP(fields, line)
			p.pos++
		case "pbr":
			p.parsePBR(fields, line)
		case "interface":
			p.parseInterface(fields, line)
		default:
			p.errorf(line, "unknown top-level keyword %q", fields[0])
			p.pos++
		}
	}
}

// block collects the 0-based indexes of the body lines of a block whose
// header is at p.pos with the given indentation; it advances p.pos past the
// block and returns the body line indexes (content indent > headerIndent).
func (p *parser) block(headerIndent int) []int {
	var body []int
	p.pos++
	for p.pos < p.cfg.NumLines() {
		ind, content := p.indent(p.pos)
		if skippable(content) {
			p.pos++
			continue
		}
		if ind <= headerIndent {
			break
		}
		body = append(body, p.pos)
		p.pos++
	}
	return body
}

func (p *parser) parseASN(s string, line int) uint32 {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil || v == 0 {
		p.errorf(line, "invalid AS number %q", s)
		return 0
	}
	return uint32(v)
}

func (p *parser) parseAddr(s string, line int) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		p.errorf(line, "invalid IP address %q", s)
		return netip.Addr{}
	}
	return a
}

func (p *parser) parsePrefix(s string, line int) netip.Prefix {
	pf, err := netip.ParsePrefix(s)
	if err != nil {
		p.errorf(line, "invalid prefix %q", s)
		return netip.Prefix{}
	}
	return pf.Masked()
}

func (p *parser) parseInt(s string, line int) int {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		p.errorf(line, "invalid number %q", s)
		return 0
	}
	return v
}

// --- bgp -------------------------------------------------------------------

func (p *parser) parseBGP(fields []string, line int) {
	if len(fields) != 2 {
		p.errorf(line, "usage: bgp <asn>")
		p.pos++
		return
	}
	if p.file.BGP != nil {
		p.errorf(line, "duplicate bgp block (first at line %d)", p.file.BGP.Line)
	}
	b := &BGPBlock{Line: line, ASN: p.parseASN(fields[1], line)}
	body := p.block(0)
	b.End = line
	if len(body) > 0 {
		b.End = body[len(body)-1] + 1
	}
	peers := map[netip.Addr]*Peer{}
	peerOrder := []netip.Addr{}
	getPeer := func(a netip.Addr) *Peer {
		if pe, ok := peers[a]; ok {
			return pe
		}
		pe := &Peer{Addr: a}
		peers[a] = pe
		peerOrder = append(peerOrder, a)
		return pe
	}
	for _, i := range body {
		_, content := p.indent(i)
		ln := i + 1
		f := split(&p.body, content)
		switch f[0] {
		case "router-id":
			if len(f) != 2 {
				p.errorf(ln, "usage: router-id <ipv4>")
				continue
			}
			b.RouterID = p.parseAddr(f[1], ln)
			b.RouterIDLine = ln
		case "peer-group":
			p.parsePeerGroupLine(b, f, ln)
		case "peer":
			p.parsePeerLine(b, getPeer, f, ln)
		case "network":
			if len(f) != 2 {
				p.errorf(ln, "usage: network <prefix>")
				continue
			}
			b.Networks = append(b.Networks, &NetworkStmt{Line: ln, Prefix: p.parsePrefix(f[1], ln)})
		case "redistribute":
			switch {
			case len(f) == 2 && f[1] == "static":
				b.Redistribute = &RedistributeStmt{Line: ln}
			case len(f) == 4 && f[1] == "static" && f[2] == "route-policy":
				b.Redistribute = &RedistributeStmt{Line: ln, Policy: f[3]}
			default:
				p.errorf(ln, "usage: redistribute static [route-policy <name>]")
			}
		default:
			p.errorf(ln, "unknown bgp statement %q", f[0])
		}
	}
	for _, a := range peerOrder {
		b.Peers = append(b.Peers, peers[a])
	}
	p.file.BGP = b
}

func (p *parser) parsePeerGroupLine(b *BGPBlock, f []string, ln int) {
	if len(f) < 2 {
		p.errorf(ln, "usage: peer-group <name> [external] | peer-group <name> route-policy <pol> (import|export)")
		return
	}
	name := f[1]
	find := func() *PeerGroup {
		for _, g := range b.Groups {
			if g.Name == name {
				return g
			}
		}
		return nil
	}
	switch {
	case len(f) == 2 || (len(f) == 3 && f[2] == "external"):
		if find() != nil {
			p.errorf(ln, "duplicate peer-group %q", name)
			return
		}
		b.Groups = append(b.Groups, &PeerGroup{Line: ln, Name: name, External: len(f) == 3})
	case len(f) == 5 && f[2] == "route-policy":
		g := find()
		if g == nil {
			// Attachment before declaration: declare implicitly so the
			// attachment is not lost (matching vendor behavior, where the
			// first reference creates the group).
			g = &PeerGroup{Line: ln, Name: name}
			b.Groups = append(b.Groups, g)
		}
		d, ok := parseDirection(f[4])
		if !ok {
			p.errorf(ln, "direction must be import or export, got %q", f[4])
			return
		}
		g.Policies = append(g.Policies, &PolicyAttach{Line: ln, Policy: f[3], Direction: d})
	default:
		p.errorf(ln, "unknown peer-group statement")
	}
}

func (p *parser) parsePeerLine(b *BGPBlock, getPeer func(netip.Addr) *Peer, f []string, ln int) {
	if len(f) < 3 {
		p.errorf(ln, "usage: peer <ip> (as-number <asn> | group <name> | route-policy <pol> (import|export))")
		return
	}
	addr := p.parseAddr(f[1], ln)
	if !addr.IsValid() {
		return
	}
	pe := getPeer(addr)
	switch f[2] {
	case "as-number":
		if len(f) != 4 {
			p.errorf(ln, "usage: peer <ip> as-number <asn>")
			return
		}
		pe.ASN = p.parseASN(f[3], ln)
		pe.ASNLine = ln
	case "group":
		if len(f) != 4 {
			p.errorf(ln, "usage: peer <ip> group <name>")
			return
		}
		pe.Group = f[3]
		pe.GroupLine = ln
		// Membership implicitly declares the group (vendor behavior).
		exists := false
		for _, g := range b.Groups {
			if g.Name == pe.Group {
				exists = true
				break
			}
		}
		if !exists {
			b.Groups = append(b.Groups, &PeerGroup{Line: ln, Name: pe.Group})
		}
	case "route-policy":
		if len(f) != 5 {
			p.errorf(ln, "usage: peer <ip> route-policy <pol> (import|export)")
			return
		}
		d, ok := parseDirection(f[4])
		if !ok {
			p.errorf(ln, "direction must be import or export, got %q", f[4])
			return
		}
		pe.Policies = append(pe.Policies, &PolicyAttach{Line: ln, Policy: f[3], Direction: d})
	default:
		p.errorf(ln, "unknown peer statement %q", f[2])
	}
}

func parseDirection(s string) (Direction, bool) {
	switch s {
	case "import":
		return Import, true
	case "export":
		return Export, true
	}
	return Import, false
}

// --- route-policy ----------------------------------------------------------

func (p *parser) parseRoutePolicy(fields []string, line int) {
	if len(fields) != 5 || fields[3] != "node" {
		p.errorf(line, "usage: route-policy <name> (permit|deny) node <n>")
		p.pos++
		return
	}
	rp := &RoutePolicy{Line: line, Name: fields[1], Node: p.parseInt(fields[4], line)}
	switch fields[2] {
	case "permit":
		rp.Permit = true
	case "deny":
	default:
		p.errorf(line, "action must be permit or deny, got %q", fields[2])
	}
	body := p.block(0)
	rp.End = line
	if len(body) > 0 {
		rp.End = body[len(body)-1] + 1
	}
	for _, i := range body {
		_, content := p.indent(i)
		ln := i + 1
		f := split(&p.body, content)
		switch f[0] {
		case "match":
			if len(f) == 3 && f[1] == "ip-prefix" {
				rp.Matches = append(rp.Matches, &MatchClause{Line: ln, Kind: MatchIPPrefix, PrefixList: f[2]})
			} else {
				p.errorf(ln, "usage: match ip-prefix <list>")
			}
		case "apply":
			p.parseApply(rp, f, ln)
		default:
			p.errorf(ln, "unknown route-policy statement %q", f[0])
		}
	}
	p.file.Policies = append(p.file.Policies, rp)
}

func (p *parser) parseApply(rp *RoutePolicy, f []string, ln int) {
	bad := func() { p.errorf(ln, "unknown apply clause %q", strings.Join(f, " ")) }
	if len(f) < 2 {
		bad()
		return
	}
	switch f[1] {
	case "as-path":
		switch {
		case len(f) == 4 && f[2] == "overwrite":
			rp.Applies = append(rp.Applies, &ApplyClause{Line: ln, Kind: ApplyASPathOverwrite, ASN: p.parseASN(f[3], ln)})
		case (len(f) == 4 || len(f) == 5) && f[2] == "prepend":
			c := &ApplyClause{Line: ln, Kind: ApplyASPathPrepend, ASN: p.parseASN(f[3], ln), Count: 1}
			if len(f) == 5 {
				c.Count = p.parseInt(f[4], ln)
			}
			rp.Applies = append(rp.Applies, c)
		default:
			bad()
		}
	case "local-preference":
		if len(f) != 3 {
			bad()
			return
		}
		rp.Applies = append(rp.Applies, &ApplyClause{Line: ln, Kind: ApplyLocalPref, Value: uint32(p.parseInt(f[2], ln))})
	case "med":
		if len(f) != 3 {
			bad()
			return
		}
		rp.Applies = append(rp.Applies, &ApplyClause{Line: ln, Kind: ApplyMED, Value: uint32(p.parseInt(f[2], ln))})
	default:
		bad()
	}
}

// --- ip (prefix-list, static routes) ----------------------------------------

func (p *parser) parseIP(f []string, line int) {
	if len(f) < 2 {
		p.errorf(line, "incomplete ip statement")
		return
	}
	switch f[1] {
	case "prefix-list":
		p.parsePrefixList(f, line)
	case "route":
		p.parseStaticRoute(f, line)
	default:
		p.errorf(line, "unknown ip statement %q", f[1])
	}
}

func (p *parser) parsePrefixList(f []string, line int) {
	// ip prefix-list <name> index <n> (permit|deny) <prefix> [ge <n>] [le <n>]
	if len(f) < 7 || f[3] != "index" {
		p.errorf(line, "usage: ip prefix-list <name> index <n> (permit|deny) <prefix> [ge <n>] [le <n>]")
		return
	}
	e := &PrefixList{
		Line:  line,
		Name:  f[2],
		Index: p.parseInt(f[4], line),
	}
	switch f[5] {
	case "permit":
		e.Permit = true
	case "deny":
	default:
		p.errorf(line, "action must be permit or deny, got %q", f[5])
		return
	}
	e.Prefix = p.parsePrefix(f[6], line)
	rest := f[7:]
	for len(rest) >= 2 {
		switch rest[0] {
		case "ge":
			e.GE = p.parseInt(rest[1], line)
		case "le":
			e.LE = p.parseInt(rest[1], line)
		default:
			p.errorf(line, "unknown prefix-list qualifier %q", rest[0])
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		p.errorf(line, "trailing tokens in prefix-list entry")
	}
	p.file.PrefixLists = append(p.file.PrefixLists, e)
}

func (p *parser) parseStaticRoute(f []string, line int) {
	// ip route static <prefix> (next-hop <ip> | null0)
	if len(f) < 4 || f[2] != "static" {
		p.errorf(line, "usage: ip route static <prefix> (next-hop <ip>|null0)")
		return
	}
	sr := &StaticRoute{Line: line, Prefix: p.parsePrefix(f[3], line)}
	switch {
	case len(f) == 5 && f[4] == "null0":
		sr.Null0 = true
	case len(f) == 6 && f[4] == "next-hop":
		sr.NextHop = p.parseAddr(f[5], line)
	default:
		p.errorf(line, "usage: ip route static <prefix> (next-hop <ip>|null0)")
		return
	}
	p.file.Statics = append(p.file.Statics, sr)
}

// --- pbr ---------------------------------------------------------------------

func (p *parser) parsePBR(fields []string, line int) {
	if len(fields) != 3 || fields[1] != "policy" {
		p.errorf(line, "usage: pbr policy <name>")
		p.pos++
		return
	}
	pol := &PBRPolicy{Line: line, Name: fields[2]}
	body := p.block(0)
	pol.End = line
	if len(body) > 0 {
		pol.End = body[len(body)-1] + 1
	}
	var rule *PBRRule
	flush := func() {
		if rule != nil {
			pol.Rules = append(pol.Rules, rule)
			rule = nil
		}
	}
	for _, i := range body {
		ind, content := p.indent(i)
		ln := i + 1
		f := split(&p.body, content)
		if ind == 1 {
			if f[0] != "rule" || len(f) != 3 {
				p.errorf(ln, "usage: rule <n> (permit|deny)")
				continue
			}
			flush()
			rule = &PBRRule{Line: ln, End: ln, Index: p.parseInt(f[1], ln)}
			switch f[2] {
			case "permit":
				rule.Permit = true
			case "deny":
			default:
				p.errorf(ln, "action must be permit or deny, got %q", f[2])
			}
			continue
		}
		if rule == nil {
			p.errorf(ln, "statement outside any rule")
			continue
		}
		rule.End = ln
		switch {
		case len(f) == 3 && f[0] == "match" && f[1] == "source":
			rule.MatchSource = &PrefixMatch{Line: ln, Prefix: p.parsePrefix(f[2], ln)}
		case len(f) == 3 && f[0] == "match" && f[1] == "destination":
			rule.MatchDest = &PrefixMatch{Line: ln, Prefix: p.parsePrefix(f[2], ln)}
		case len(f) == 3 && f[0] == "match" && f[1] == "protocol":
			proto := f[2]
			if proto != "tcp" && proto != "udp" && proto != "any" {
				p.errorf(ln, "protocol must be tcp, udp, or any")
				continue
			}
			rule.MatchProto = &ProtoMatch{Line: ln, Proto: proto}
		case len(f) == 3 && f[0] == "match" && f[1] == "dst-port":
			rule.MatchDstPort = &PortMatch{Line: ln, Port: uint16(p.parseInt(f[2], ln))}
		case len(f) == 3 && f[0] == "apply" && f[1] == "next-hop":
			rule.ApplyNextHop = &NextHopApply{Line: ln, NextHop: p.parseAddr(f[2], ln)}
		case len(f) == 2 && f[0] == "apply" && f[1] == "drop":
			rule.ApplyDrop = &DropApply{Line: ln}
		default:
			p.errorf(ln, "unknown pbr rule statement %q", content)
		}
	}
	flush()
	p.file.PBRPolicies = append(p.file.PBRPolicies, pol)
}

// --- interface ----------------------------------------------------------------

func (p *parser) parseInterface(fields []string, line int) {
	if len(fields) != 2 {
		p.errorf(line, "usage: interface <name>")
		p.pos++
		return
	}
	itf := &Interface{Line: line, Name: fields[1]}
	body := p.block(0)
	itf.End = line
	if len(body) > 0 {
		itf.End = body[len(body)-1] + 1
	}
	for _, i := range body {
		_, content := p.indent(i)
		ln := i + 1
		f := split(&p.body, content)
		switch {
		case len(f) == 3 && f[0] == "ip" && f[1] == "address":
			pf, err := netip.ParsePrefix(f[2])
			if err != nil {
				p.errorf(ln, "invalid interface address %q", f[2])
				continue
			}
			itf.Addr = pf // keep host bits: the address identifies the interface
			itf.AddrLine = ln
		case len(f) == 3 && f[0] == "pbr" && f[1] == "policy":
			itf.PBRPolicy = f[2]
			itf.PBRLine = ln
		case len(f) == 1 && f[0] == "shutdown":
			itf.Shutdown = true
			itf.ShutLine = ln
		default:
			p.errorf(ln, "unknown interface statement %q", content)
		}
	}
	p.file.Interfaces = append(p.file.Interfaces, itf)
}
