// Package caseio loads and saves repair cases as plain-text directories,
// so the cmd/acr tool can operate on user-supplied networks:
//
//	casedir/
//	  topology.txt    # nodes and links
//	  intents.txt     # the specification
//	  configs/<device>.cfg
//
// Topology format (one statement per line; '#' comments):
//
//	node <name> <kind> <asn> <router-id> [originates <prefix>[,<prefix>...]]
//	link <nodeA> <nodeB>
//
// Kinds: backbone, pop, dcn, spine, leaf, core. Links allocate interface
// addresses deterministically in declaration order, so configs generated
// against a topology remain valid across reloads.
//
// Intent format:
//
//	reach <id> <src-prefix> <dst-prefix> [port <n>] [proto tcp|udp]
//	isolate <id> <src-prefix> <dst-prefix>
//	waypoint <id> <src-prefix> <dst-prefix> via <router> [port <n>]
//	loopfree <id> <prefix>
//	blackholefree <id> <prefix>
package caseio

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/topo"
	"acr/internal/verify"
)

// Load reads a case directory: the files of an Upload named after the
// directory, decoded and validated by FromUpload.
func Load(dir string) (*scenario.Scenario, error) {
	u := Upload{Name: filepath.Base(dir), Configs: map[string]string{}}
	for name, text := range map[string]*string{"topology.txt": &u.Topology, "intents.txt": &u.Intents} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		*text = string(data)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "configs", "*.cfg"))
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		u.Configs[strings.TrimSuffix(filepath.Base(path), ".cfg")] = string(text)
	}
	return FromUpload(u)
}

// Save writes a case directory (creating it as needed). Every file is
// written atomically (temp file + rename + fsync), so a crash mid-save —
// including one that interrupts overwriting an existing case with a
// repaired one — never leaves a torn topology, intent file, or config.
func Save(dir string, s *scenario.Scenario) error {
	if err := os.MkdirAll(filepath.Join(dir, "configs"), 0o755); err != nil {
		return err
	}
	files := map[string]string{"topology.txt": FormatTopology(s.Topo), "intents.txt": FormatIntents(s.Intents)}
	for d, c := range s.Configs {
		files[filepath.Join("configs", d+".cfg")] = c.Text()
	}
	for name, text := range files {
		if err := writeFileAtomic(filepath.Join(dir, name), []byte(text)); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes data to path with the temp-file + rename + fsync
// discipline: a crash at any point leaves either the old file or the new
// one, never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return journal.SyncDir(filepath.Dir(path))
}

// Upload is the wire form of a user-supplied case — the JSON body the
// repair service accepts on POST /v1/repairs. Topology and Intents carry
// the same text formats Load reads from topology.txt and intents.txt;
// Configs maps device name to raw configuration text.
type Upload struct {
	Name     string            `json:"name"`
	Topology string            `json:"topology"`
	Intents  string            `json:"intents"`
	Configs  map[string]string `json:"configs"`
}

// FromUpload decodes an uploaded case into a scenario, validating it the
// way Load validates a case directory: the topology must parse and
// validate, every config device must exist in the topology, and at least
// one config must be present. Config text is NOT required to parse —
// broken lines are repair candidates, exactly as with on-disk cases.
func FromUpload(u Upload) (*scenario.Scenario, error) {
	name := u.Name
	if name == "" {
		name = "upload"
	}
	t, err := ParseTopology(name, u.Topology)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	intents, err := ParseIntents(u.Intents)
	if err != nil {
		return nil, fmt.Errorf("intents: %w", err)
	}
	if len(u.Configs) == 0 {
		return nil, errors.New("no configs")
	}
	configs := map[string]*netcfg.Config{}
	for device, text := range u.Configs {
		if t.Node(device) == nil {
			return nil, fmt.Errorf("config %q: device not in topology", device)
		}
		configs[device] = netcfg.NewConfig(device, text)
	}
	return &scenario.Scenario{Name: name, Topo: t, Configs: configs, Intents: intents}, nil
}

// ToUpload renders a scenario as an Upload — the inverse of FromUpload,
// used by clients submitting an in-memory case to the repair service.
func ToUpload(s *scenario.Scenario) Upload {
	u := Upload{
		Name:     s.Name,
		Topology: FormatTopology(s.Topo),
		Intents:  FormatIntents(s.Intents),
		Configs:  map[string]string{},
	}
	for d, c := range s.Configs {
		u.Configs[d] = c.Text()
	}
	return u
}

// ParseTopology parses the topology format.
func ParseTopology(name, text string) (*topo.Network, error) {
	t := topo.New(name)
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "node":
			if len(f) < 5 {
				return nil, fmt.Errorf("line %d: usage: node <name> <kind> <asn> <router-id> [originates p1,p2]", i+1)
			}
			kind, err := parseKind(f[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			asn, err := strconv.ParseUint(f[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad asn %q", i+1, f[3])
			}
			rid, err := netip.ParseAddr(f[4])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad router-id %q", i+1, f[4])
			}
			nd := t.AddNode(f[1], kind, uint32(asn), rid)
			if len(f) == 7 && f[5] == "originates" {
				for _, ps := range strings.Split(f[6], ",") {
					p, err := netip.ParsePrefix(ps)
					if err != nil {
						return nil, fmt.Errorf("line %d: bad prefix %q", i+1, ps)
					}
					nd.Originates = append(nd.Originates, p.Masked())
				}
			} else if len(f) != 5 {
				return nil, fmt.Errorf("line %d: trailing tokens", i+1)
			}
		case "link":
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: usage: link <a> <b>", i+1)
			}
			if t.Node(f[1]) == nil || t.Node(f[2]) == nil {
				return nil, fmt.Errorf("line %d: link references unknown node", i+1)
			}
			t.Connect(f[1], f[2])
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", i+1, f[0])
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// FormatTopology renders a topology in the Load format. Node and link
// declaration order is preserved, which keeps address allocation stable
// across a Save/Load round trip.
func FormatTopology(t *topo.Network) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# topology %s: %d nodes, %d links\n", t.Name, t.NumNodes(), len(t.Links))
	for _, nd := range t.Nodes() {
		fmt.Fprintf(&sb, "node %s %s %d %s", nd.Name, nd.Kind, nd.ASN, nd.RouterID)
		if len(nd.Originates) > 0 {
			parts := make([]string, len(nd.Originates))
			for i, p := range nd.Originates {
				parts[i] = p.String()
			}
			fmt.Fprintf(&sb, " originates %s", strings.Join(parts, ","))
		}
		sb.WriteByte('\n')
	}
	for _, l := range t.Links {
		fmt.Fprintf(&sb, "link %s %s\n", l.A.Node, l.B.Node)
	}
	return sb.String()
}

// parseKind inverts topo.Kind's String.
func parseKind(s string) (topo.Kind, error) {
	for k := topo.Backbone; k <= topo.Core; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown node kind %q", s)
}

// ParseIntents parses the intent format.
func ParseIntents(text string) ([]verify.Intent, error) {
	var out []verify.Intent
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(usage string) error {
			return fmt.Errorf("line %d: usage: %s", i+1, usage)
		}
		switch f[0] {
		case "reach", "isolate":
			if len(f) < 4 {
				return nil, bad(f[0] + " <id> <src> <dst> [port <n>] [proto tcp|udp]")
			}
			src, err1 := netip.ParsePrefix(f[2])
			dst, err2 := netip.ParsePrefix(f[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad prefix", i+1)
			}
			in := verify.ReachIntent(f[1], src.Masked(), dst.Masked())
			if f[0] == "isolate" {
				in.Kind = verify.Isolation
			}
			if err := parseFlowOpts(f[4:], &in); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			out = append(out, in)
		case "waypoint":
			if len(f) < 6 || f[4] != "via" {
				return nil, bad("waypoint <id> <src> <dst> via <router> [port <n>]")
			}
			src, err1 := netip.ParsePrefix(f[2])
			dst, err2 := netip.ParsePrefix(f[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad prefix", i+1)
			}
			in := verify.WaypointIntent(f[1], src.Masked(), dst.Masked(), f[5])
			if err := parseFlowOpts(f[6:], &in); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			out = append(out, in)
		case "loopfree", "blackholefree":
			if len(f) != 3 {
				return nil, bad(f[0] + " <id> <prefix>")
			}
			p, err := netip.ParsePrefix(f[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad prefix %q", i+1, f[2])
			}
			if f[0] == "loopfree" {
				out = append(out, verify.LoopFreeIntent(f[1], p.Masked()))
			} else {
				out = append(out, verify.BlackholeFreeIntent(f[1], p.Masked()))
			}
		default:
			return nil, fmt.Errorf("line %d: unknown intent kind %q", i+1, f[0])
		}
	}
	return out, nil
}

func parseFlowOpts(rest []string, in *verify.Intent) error {
	for len(rest) >= 2 {
		switch rest[0] {
		case "port":
			v, err := strconv.ParseUint(rest[1], 10, 16)
			if err != nil {
				return fmt.Errorf("bad port %q", rest[1])
			}
			in.DstPort = uint16(v)
		case "proto":
			if rest[1] != "tcp" && rest[1] != "udp" {
				return fmt.Errorf("bad proto %q", rest[1])
			}
			in.Proto = rest[1]
		default:
			return fmt.Errorf("unknown option %q", rest[0])
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("trailing tokens %v", rest)
	}
	return nil
}

// FormatIntents renders intents in the Load format.
func FormatIntents(intents []verify.Intent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %d intents\n", len(intents))
	for _, in := range intents {
		switch in.Kind {
		case verify.Reachability:
			fmt.Fprintf(&sb, "reach %s %s %s", in.ID, in.SrcPrefix, in.DstPrefix)
		case verify.Isolation:
			fmt.Fprintf(&sb, "isolate %s %s %s", in.ID, in.SrcPrefix, in.DstPrefix)
		case verify.Waypoint:
			fmt.Fprintf(&sb, "waypoint %s %s %s via %s", in.ID, in.SrcPrefix, in.DstPrefix, in.Via)
		case verify.LoopFree:
			fmt.Fprintf(&sb, "loopfree %s %s\n", in.ID, in.DstPrefix)
			continue
		case verify.BlackholeFree:
			fmt.Fprintf(&sb, "blackholefree %s %s\n", in.ID, in.DstPrefix)
			continue
		}
		if in.DstPort != 0 {
			fmt.Fprintf(&sb, " port %d", in.DstPort)
		}
		if in.Proto != "" {
			fmt.Fprintf(&sb, " proto %s", in.Proto)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
