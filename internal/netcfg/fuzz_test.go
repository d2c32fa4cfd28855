package netcfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzParse throws arbitrary text at the parser and checks the robustness
// contract the repair engine depends on:
//
//   - Parse never panics and never returns a nil File, no matter how
//     broken the input (broken lines are repair candidates, so analyses
//     must keep going on partial ASTs);
//   - the document round-trip (Config.Text → NewConfig → Parse) is
//     stable: the reprinted text reprints identically and parses to the
//     same verdict;
//   - the indexes Parse builds answer PrefixListEntries, PolicyNodes and
//     PeerSessionLines exactly as their filter-and-sort definitions do
//     (checkIndexes), and the parser splits a line as strings.Fields does.
func FuzzParse(f *testing.F) {
	seeds := []string{
		routerAText,
		"",
		"\n\n\n",
		"# only a comment\n",
		"bgp 65001\n",
		"bgp 65001\n router-id 1.0.0.1\n peer 10.0.0.2 as-number 64601\n",
		"bgp not-a-number\n",
		"bgp 65001\n peer 10.0.0.999 as-number 1\n",
		"route-policy P permit node 10\n match ip-prefix pl\n apply local-preference 200\n",
		"route-policy P deny node nope\n",
		"ip prefix-list pl index 10 permit 10.0.0.0/8 le 24\n",
		"ip prefix-list pl index ten permit 10.0.0.0/8\n",
		"ip route static 10.0.0.0/8 next-hop 10.1.1.2\n",
		"pbr policy P\n if source 10.0.0.0/8 then next-hop 10.1.1.2\n",
		"interface eth0\n ip address 10.1.1.1/30\n",
		"interface eth0\n shutdown\n",
		"   leading indentation\n",
		"unknown keyword soup\n",
		"bgp 65001\n\tpeer 10.0.0.2 as-number 1\n", // tab, not space
		"bgp 65001\n  peer 10.0.0.2\n   orphan deep indent\n",
		"route-policy P permit node 10\nroute-policy P permit node 10\n",
		"bgp 1\nbgp 2\n",
		"peer 10.0.0.2 as-number 1\n", // body line at top level
		"route-policy P permit node 20\nroute-policy Q deny node 5\nroute-policy P deny node 10\nroute-policy P permit node 10\n",
		"a\u00a0b\u0085c \xff\td\n", // non-ASCII spaces, invalid UTF-8
		"bgp 65001\n peer-group G external\n peer 10.0.0.2 as-number 1\n peer 10.0.0.2 group G\n peer 10.0.0.3 group G\n",
	}
	// A list longer than a small-slice sort with many equal indexes: only
	// a stable sort keeps their file order.
	var ties strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&ties, "ip prefix-list t index %d permit 10.%d.0.0/16\n", 10*(i%3), i)
	}
	seeds = append(seeds, ties.String())
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c := NewConfig("fuzz", text)
		file, err := Parse(c) // must not panic
		if file == nil {
			t.Fatal("Parse returned nil File")
		}
		checkIndexes(t, file)
		var buf []string
		for _, ln := range strings.Split(text, "\n") {
			if got, want := split(&buf, ln), strings.Fields(ln); !slices.Equal(got, want) {
				t.Fatalf("split(%q) = %q, strings.Fields: %q", ln, got, want)
			}
		}
		// Round-trip: print and reparse. (Static checks over partial ASTs
		// are exercised by FuzzAnalyze in internal/analysis.)
		printed := NewConfig("fuzz", c.Text())
		if printed.Text() != c.Text() {
			t.Fatalf("reprint not stable:\n%q\nvs\n%q", printed.Text(), c.Text())
		}
		file2, err2 := Parse(printed)
		if file2 == nil {
			t.Fatal("reparse returned nil File")
		}
		if (err == nil) != (err2 == nil) {
			t.Fatalf("parse verdict changed across reprint: %v vs %v", err, err2)
		}
		if err != nil && err.Error() != err2.Error() {
			t.Fatalf("parse errors changed across reprint:\n%v\nvs\n%v", err, err2)
		}
	})
}

// checkIndexes holds the indexed lookups of f to their definitions: a
// filter over the file's statements in file order, stably sorted.
func checkIndexes(t *testing.T, f *File) {
	t.Helper()
	names := map[string]bool{"absent": true}
	for _, e := range f.PrefixLists {
		names[e.Name] = true
	}
	for _, p := range f.Policies {
		names[p.Name] = true
	}
	for name := range names {
		var entries []*PrefixList
		for _, e := range f.PrefixLists {
			if e.Name == name {
				entries = append(entries, e)
			}
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Index < entries[j].Index })
		if got := f.PrefixListEntries(name); !slices.Equal(got, entries) || cap(got) != len(got) {
			t.Fatalf("PrefixListEntries(%q) = %v (cap %d), want %v", name, got, cap(got), entries)
		}
		var nodes []*RoutePolicy
		for _, p := range f.Policies {
			if p.Name == name {
				nodes = append(nodes, p)
			}
		}
		sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
		if got := f.PolicyNodes(name); !slices.Equal(got, nodes) || cap(got) != len(got) {
			t.Fatalf("PolicyNodes(%q) = %v (cap %d), want %v", name, got, cap(got), nodes)
		}
	}
	if f.BGP == nil {
		return
	}
	for _, p := range f.BGP.Peers {
		var lines []LineRef
		if p.ASNLine > 0 {
			lines = append(lines, LineRef{f.Device, p.ASNLine})
		}
		if p.GroupLine > 0 {
			lines = append(lines, LineRef{f.Device, p.GroupLine})
		}
		if p.Group != "" {
			if g := f.GroupByName(p.Group); g != nil {
				lines = append(lines, LineRef{f.Device, g.Line})
			}
		}
		if got := f.PeerSessionLines(p); !slices.Equal(got, lines) || cap(got) != len(got) {
			t.Fatalf("PeerSessionLines(%s) = %v (cap %d), want %v", p.Addr, got, cap(got), lines)
		}
	}
}
