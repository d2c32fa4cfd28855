package tmplreg

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// TestEngineTemplatesMatchBuiltinOrder: registry resolution must be
// trajectory-identical to the pre-registry engine — same templates, same
// order, same names, same classes.
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
		if _, ok := got[i].(core.DescribedTemplate); !ok {
			t.Errorf("%s: registry-resolved template is not a DescribedTemplate", got[i].Name())
		}
	}
}

// TestRegistryResolvedRepairIsByteIdentical: a repair run with registry
// resolution produces the exact Canonical bytes of a run on the raw
// builtin structs.
func TestRegistryResolvedRepairIsByteIdentical(t *testing.T) {
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	raw := core.Repair(p, core.Options{Seed: 1, Templates: core.BuiltinTemplates()})
	reg := core.Repair(p, core.Options{Seed: 1, Templates: Default.EngineTemplates()})
	if raw.Canonical() != reg.Canonical() {
		t.Fatalf("registry resolution changed the repair trajectory:\nraw: %s\nreg: %s", raw.Summary(), reg.Summary())
	}
}

// TestSearchDigestFoldsDescriptors: the registry-resolved library yields a
// different SearchDigest than the bare structs (descriptor digests are in
// the fingerprint), and changing any descriptor field changes it again.
func TestSearchDigestFoldsDescriptors(t *testing.T) {
	base := core.Options{Seed: 1, Templates: core.BuiltinTemplates()}.SearchDigest()
	regd := core.Options{Seed: 1, Templates: Default.EngineTemplates()}.SearchDigest()
	if base == regd {
		t.Fatal("descriptor digests not folded into SearchDigest")
	}

	// Same code, bumped version → different digest.
	r2 := New()
	for _, e := range Default.List() {
		m := e.Meta
		if m.Name == "fix-peer-asn" {
			m.Version = "1.0.1"
		}
		if err := r2.Register(m, e.Template()); err != nil {
			t.Fatal(err)
		}
	}
	bumped := core.Options{Seed: 1, Templates: r2.EngineTemplates()}.SearchDigest()
	if bumped == regd {
		t.Fatal("version bump did not change SearchDigest")
	}
}

// TestRegisterValidation: descriptors that disagree with the template, or
// collide, are rejected.
func TestRegisterValidation(t *testing.T) {
	r := New()
	tmpl := core.FixPeerASN{}
	good := Meta{Name: tmpl.Name(), Description: "d", Class: tmpl.ErrorClass(),
		UseCase: "u", Version: "1", Provenance: Operator}
	if err := r.Register(good, tmpl); err != nil {
		t.Fatalf("valid registration rejected: %v", err)
	}
	cases := []struct {
		name string
		m    Meta
	}{
		{"duplicate", good},
		{"wrong name", Meta{Name: "other", Description: "d", Class: tmpl.ErrorClass(), UseCase: "u", Version: "1", Provenance: Operator}},
		{"wrong class", Meta{Name: tmpl.Name(), Description: "d", Class: errclass.MissingPeerGroup, UseCase: "u", Version: "1", Provenance: Operator}},
		{"no description", Meta{Name: tmpl.Name(), Class: tmpl.ErrorClass(), UseCase: "u", Version: "1", Provenance: Operator}},
		{"no version", Meta{Name: tmpl.Name(), Description: "d", Class: tmpl.ErrorClass(), UseCase: "u", Provenance: Operator}},
		{"bad provenance", Meta{Name: tmpl.Name(), Description: "d", Class: tmpl.ErrorClass(), UseCase: "u", Version: "1", Provenance: "wild"}},
		{"mined provenance", Meta{Name: tmpl.Name(), Description: "d", Class: tmpl.ErrorClass(), UseCase: "u", Version: "1", Provenance: "mined"}},
	}
	for _, c := range cases {
		if err := r.Register(c.m, tmpl); err == nil {
			t.Errorf("%s: registration accepted", c.name)
		}
	}
	if err := r.Register(good, nil); err == nil {
		t.Error("nil template accepted")
	}
}

// TestListSortedAndLookup: List is name-sorted regardless of registration
// order; Lookup finds every listed entry and nothing else.
func TestListSortedAndLookup(t *testing.T) {
	list := Default.List()
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].Name < list[j].Name }) {
		t.Error("List not sorted by name")
	}
	if len(list) != 13 {
		t.Errorf("builtin registry holds %d entries, want 13 (11 Table 1 + 2 universal)", len(list))
	}
	e, ok := Default.Lookup("symbolize-prefix-list")
	if !ok || e.Provenance != Builtin || e.Class != errclass.MissingPrefixListItem {
		t.Errorf("Lookup symbolize-prefix-list = %+v, %v", e, ok)
	}
	if e.Digest != e.Meta.Digest() || len(e.Digest) != 64 {
		t.Errorf("entry digest %q inconsistent with Meta.Digest()", e.Digest)
	}
	for _, le := range list {
		if got, ok := Default.Lookup(le.Name); !ok || got.Digest != le.Digest {
			t.Errorf("Lookup %s = %+v, %v; List holds digest %s", le.Name, got, ok, le.Digest)
		}
	}
	if _, ok := Default.Lookup("no-such-template"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

// TestUniversalExcludedFromEngineSet: the §6 ablation operators are
// registered but never join the default engine library.
func TestUniversalExcludedFromEngineSet(t *testing.T) {
	for _, tm := range Default.EngineTemplates() {
		if !tm.ErrorClass().Table1() {
			t.Errorf("universal operator %s leaked into the engine set", tm.Name())
		}
	}
	if got := Default.UniversalTemplates(); len(got) != 2 ||
		got[0].Name() != "universal-delete-line" || got[1].Name() != "universal-copy-from-role-peer" {
		t.Errorf("UniversalTemplates = %v", names(got))
	}
}

// TestRegistryDigestStable: the registry digest is deterministic and
// metadata-sensitive.
func TestRegistryDigestStable(t *testing.T) {
	if Default.Digest() != Default.Digest() {
		t.Fatal("Digest not deterministic")
	}
	r2 := New()
	registerBuiltins(r2)
	if r2.Digest() != Default.Digest() {
		t.Fatal("two identically populated registries disagree")
	}
	r2.MustRegister(Meta{Name: "universal-delete-line-2", Description: "d",
		Class: errclass.UniversalSyntactic, UseCase: "u", Version: "1", Provenance: Operator},
		renamed{core.DeleteSuspiciousLine{}, "universal-delete-line-2"})
	if r2.Digest() == Default.Digest() {
		t.Fatal("extra entry did not change registry digest")
	}
}

// renamed gives a template a different name, for collision-free test
// registrations.
type renamed struct {
	core.Template
	name string
}

func (r renamed) Name() string { return r.name }

// TestRegistryParallelAccess hammers one registry from many goroutines —
// the CI race step selects it via -run Parallel.
func TestRegistryParallelAccess(t *testing.T) {
	r := New()
	registerBuiltins(r)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("universal-delete-line-p%d", i)
			err := r.Register(Meta{Name: name, Description: "d", Class: errclass.UniversalSyntactic,
				UseCase: "u", Version: "1", Provenance: Operator}, renamed{core.DeleteSuspiciousLine{}, name})
			if err != nil {
				t.Error(err)
			}
			for j := 0; j < 50; j++ {
				r.List()
				r.Digest()
				r.EngineTemplates()
				r.SetConformant("fix-peer-asn", j%2 == 0)
				if _, ok := r.Lookup("fix-peer-asn"); !ok {
					t.Error("fix-peer-asn vanished")
				}
			}
		}()
	}
	wg.Wait()
	if got := len(r.List()); got != 13+8 {
		t.Fatalf("registry holds %d entries after parallel registration, want 21", got)
	}
}

// TestSetConformant: verdicts stick and unknown names report false.
func TestSetConformant(t *testing.T) {
	r := New()
	registerBuiltins(r)
	if !r.SetConformant("fix-peer-asn", true) {
		t.Fatal("SetConformant on registered name failed")
	}
	if e, _ := r.Lookup("fix-peer-asn"); !e.Conformant {
		t.Error("conformance verdict not recorded")
	}
	if r.SetConformant("missing", true) {
		t.Error("SetConformant on unknown name succeeded")
	}
}

// names projects template names (test helper).
func names(ts []core.Template) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name()
	}
	return out
}

// TestDescribedDelegatesGenerate: the wrapper must not perturb identity or
// candidate generation.
func TestDescribedDelegatesGenerate(t *testing.T) {
	e, ok := Default.Lookup("symbolize-prefix-list")
	if !ok {
		t.Fatal("symbolize-prefix-list not registered")
	}
	d := e.Described()
	if d.Name() != "symbolize-prefix-list" || d.ErrorClass() != errclass.MissingPrefixListItem {
		t.Errorf("wrapper identity drift: %s %s", d.Name(), d.ErrorClass())
	}
	dt, ok := d.(core.DescribedTemplate)
	if !ok || dt.DescriptorDigest() != e.Digest {
		t.Errorf("wrapper digest drift")
	}
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	ctx := core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	anchor := netcfg.LineRef{Device: "A", Line: scenario.FigureALinePrefixList}
	raw := e.Template().Generate(ctx, anchor)
	wrapped := d.Generate(ctx, anchor)
	if len(raw) != len(wrapped) || len(raw) == 0 || raw[0].Desc != wrapped[0].Desc {
		t.Errorf("wrapper perturbed generation: %d vs %d candidates", len(raw), len(wrapped))
	}
}
