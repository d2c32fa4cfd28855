package tmplreg

import (
	"sort"
	"strings"
	"testing"

	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/scenario"
)

// TestEngineTemplatesMatchBuiltinOrder: the catalogue hands out core's
// library unchanged: same templates, same order, same names, same classes.
func TestEngineTemplatesMatchBuiltinOrder(t *testing.T) {
	got := Default.EngineTemplates()
	want := core.BuiltinTemplates()
	if len(got) != len(want) {
		t.Fatalf("EngineTemplates has %d templates, builtins %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name() != want[i].Name() {
			t.Errorf("position %d: %q != builtin %q", i, got[i].Name(), want[i].Name())
		}
		if got[i].ErrorClass() != want[i].ErrorClass() {
			t.Errorf("%s: class %q != builtin %q", got[i].Name(), got[i].ErrorClass(), want[i].ErrorClass())
		}
	}
}

// TestRegistryResolvedRepairIsByteIdentical: a repair on the catalogue's
// library produces the exact Canonical bytes of a run that leaves
// Options.Templates nil.
func TestRegistryResolvedRepairIsByteIdentical(t *testing.T) {
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	def := core.Repair(p, core.Options{Seed: 1})
	reg := core.Repair(p, core.Options{Seed: 1, Templates: Default.EngineTemplates()})
	if def.Canonical() != reg.Canonical() {
		t.Fatalf("the catalogue's library changed the repair trajectory:\ndefault: %s\ncatalogue: %s", def.Summary(), reg.Summary())
	}
}

// TestSearchDigestFoldsDescriptors: the digest each entry shows is the
// identity SearchDigest folds in, nil Templates hashes as the library, and
// a template outside the library hashes differently from the library one
// it stands in for.
func TestSearchDigestFoldsDescriptors(t *testing.T) {
	for _, e := range List() {
		if e.Digest != core.TemplateDigest(e.Name) || len(e.Digest) != 64 {
			t.Errorf("%s: entry digest %q, pinned identity %q", e.Name, e.Digest, core.TemplateDigest(e.Name))
		}
	}
	lib := core.Options{Seed: 1, Templates: Default.EngineTemplates()}.SearchDigest()
	if def := (core.Options{Seed: 1}).SearchDigest(); def != lib {
		t.Fatalf("nil Templates digests %s, the library %s", def, lib)
	}
	stand := Default.EngineTemplates()
	for i, tm := range stand {
		if tm.Name() == "fix-peer-asn" {
			stand[i] = renamed{tm, "fix-peer-asn-local"}
		}
	}
	if (core.Options{Seed: 1, Templates: stand}).SearchDigest() == lib {
		t.Fatal("a template outside the library hashed like the library template")
	}
}

// renamed gives a template a name outside the library.
type renamed struct {
	core.Template
	name string
}

func (r renamed) Name() string { return r.name }

// TestListSortedAndLookup: List is name-sorted and holds the whole
// library; Get finds every listed entry, and its error for anything else
// names the valid templates.
func TestListSortedAndLookup(t *testing.T) {
	list := List()
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].Name < list[j].Name }) {
		t.Error("List not sorted by name")
	}
	if len(list) != 13 {
		t.Errorf("catalogue holds %d entries, want 13 (11 Table 1 + 2 universal)", len(list))
	}
	if len(catalogue) != len(list) {
		t.Errorf("catalogue has text for %d names, the library has %d templates", len(catalogue), len(list))
	}
	e, err := Get("symbolize-prefix-list")
	if err != nil || e.Class != errclass.MissingPrefixListItem {
		t.Errorf("Get symbolize-prefix-list = %+v, %v", e, err)
	}
	for _, le := range list {
		if le.Description == "" || le.UseCase == "" {
			t.Errorf("%s: no catalogue text", le.Name)
		}
		if got, err := Get(le.Name); err != nil || got != le {
			t.Errorf("Get %s = %+v, %v; List holds %+v", le.Name, got, err, le)
		}
	}
	_, err = Get("no-such-template")
	if err == nil {
		t.Fatal("Get of unknown name succeeded")
	}
	for _, le := range list {
		if !strings.Contains(err.Error(), le.Name) {
			t.Errorf("unknown-name error %q does not name %s", err, le.Name)
		}
	}
}

// TestUniversalExcludedFromEngineSet: the §6 ablation operators are
// catalogued but never join the default engine library.
func TestUniversalExcludedFromEngineSet(t *testing.T) {
	for _, tm := range Default.EngineTemplates() {
		if !tm.ErrorClass().Table1() {
			t.Errorf("universal operator %s leaked into the engine set", tm.Name())
		}
	}
	got := Default.UniversalTemplates()
	if len(got) != 2 || got[0].Name() != "universal-delete-line" || got[1].Name() != "universal-copy-from-role-peer" {
		t.Errorf("UniversalTemplates has %d templates", len(got))
	}
}

// TestRegistryDigestStable: the library digest is deterministic and equal
// to the value the registry wrote before the library moved into core.
func TestRegistryDigestStable(t *testing.T) {
	const want = "bbcfe39dc99ff76297ed083856e74378df89c8cfed28990d34c090c18a24a65f"
	for i := 0; i < 3; i++ {
		if got := Digest(); got != want {
			t.Fatalf("Digest() = %s, want %s", got, want)
		}
	}
}
