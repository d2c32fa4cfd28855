// Package tmplreg is the change-template registry: the single authority
// over which change operators the repair engine may apply, what each one
// is for, and where it came from. Every template is registered with a
// descriptor — name, description, Table 1 error class, use-case, version,
// provenance — and the engine resolves its library through the registry
// instead of hard-coding the builtin list, so operator-supplied templates
// plug in beside the paper's nine families without touching internal/core.
//
// Descriptors are content-addressed: each entry's digest folds into
// core.Options.SearchDigest via the DescribedTemplate wrapper, so a
// journaled session refuses to -resume against a template set whose metadata changed — not merely one whose
// names changed.
package tmplreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"acr/internal/core"
	"acr/internal/errclass"
)

// Provenance records where a template came from.
type Provenance string

// The recognized provenances.
const (
	// Builtin templates are the paper's Table 1 library plus the §6
	// universal operators, shipped with the engine.
	Builtin Provenance = "builtin"
	// Operator templates were registered by an operator extension.
	Operator Provenance = "operator"
)

// valid reports whether p is a recognized provenance.
func (p Provenance) valid() bool {
	return p == Builtin || p == Operator
}

// Meta is a template descriptor: everything the registry knows about a
// change operator besides its code.
type Meta struct {
	// Name is the unique registry key; it must equal Template.Name().
	Name string `json:"name"`
	// Description is a one-line summary of the edit the template makes.
	Description string `json:"description"`
	// Class is the Table 1 error class the template repairs (or a
	// universal pseudo-class); it must equal Template.ErrorClass().
	Class errclass.Class `json:"class"`
	// UseCase says when an operator would reach for this template.
	UseCase string `json:"useCase"`
	// Version is bumped whenever the template's generation logic changes;
	// it feeds the descriptor digest, so a version bump orphans journals.
	Version string `json:"version"`
	// Provenance is builtin or operator.
	Provenance Provenance `json:"provenance"`
}

// Digest content-addresses the descriptor: 64 hex characters over every
// Meta field. Two registries agree on a template iff the digests match.
func (m Meta) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "name=%s\ndescription=%s\nclass=%s\nusecase=%s\nversion=%s\nprovenance=%s\n",
		m.Name, m.Description, m.Class, m.UseCase, m.Version, m.Provenance)
	return hex.EncodeToString(h.Sum(nil))
}

// validate rejects descriptors that would corrupt the registry.
func (m Meta) validate(t core.Template) error {
	switch {
	case m.Name == "":
		return fmt.Errorf("tmplreg: empty template name")
	case t == nil:
		return fmt.Errorf("tmplreg: %s: nil template", m.Name)
	case t.Name() != m.Name:
		return fmt.Errorf("tmplreg: descriptor name %q != Template.Name() %q", m.Name, t.Name())
	case t.ErrorClass() != m.Class:
		return fmt.Errorf("tmplreg: %s: descriptor class %q != Template.ErrorClass() %q", m.Name, m.Class, t.ErrorClass())
	case m.Description == "":
		return fmt.Errorf("tmplreg: %s: empty description", m.Name)
	case m.Version == "":
		return fmt.Errorf("tmplreg: %s: empty version", m.Name)
	case !m.Provenance.valid():
		return fmt.Errorf("tmplreg: %s: unknown provenance %q", m.Name, m.Provenance)
	}
	return nil
}

// Entry is one registered template with its descriptor and conformance
// status.
type Entry struct {
	Meta
	// Digest is the descriptor digest (denormalized for -json output).
	Digest string `json:"digest"`
	// Conformant reports whether the conformance harness admitted this
	// template in this process (false until a conform run marks it).
	Conformant bool `json:"conformant"`

	tmpl core.Template
}

// Template returns the registered change operator.
func (e Entry) Template() core.Template { return e.tmpl }

// Described wraps the entry's template with its descriptor digest, making
// it a core.DescribedTemplate whose identity folds into SearchDigest.
func (e Entry) Described() core.Template {
	return described{Template: e.tmpl, digest: e.Digest}
}

// described decorates a Template with its registry descriptor digest. It
// delegates Name/ErrorClass/Generate untouched, so a registry-resolved
// library is behaviorally identical to the raw structs.
type described struct {
	core.Template
	digest string
}

// DescriptorDigest implements core.DescribedTemplate.
func (d described) DescriptorDigest() string { return d.digest }

// Registry is a set of registered templates. The zero value is unusable;
// call New. A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	order  []string // registration order — the engine's application order
	byName map[string]*Entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*Entry{}}
}

// Register adds a template under its descriptor. It rejects duplicate
// names and descriptors that disagree with the template's own Name or
// ErrorClass, so registry metadata can never drift from the code.
func (r *Registry) Register(m Meta, t core.Template) error {
	if err := m.validate(t); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.Name]; dup {
		return fmt.Errorf("tmplreg: template %q already registered", m.Name)
	}
	r.order = append(r.order, m.Name)
	r.byName[m.Name] = &Entry{Meta: m, Digest: m.Digest(), tmpl: t}
	return nil
}

// MustRegister is Register, panicking on error — for package init blocks.
func (r *Registry) MustRegister(m Meta, t core.Template) {
	if err := r.Register(m, t); err != nil {
		panic(err)
	}
}

// Lookup returns the entry registered under name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// List returns every entry sorted by name — the deterministic order every
// human-facing surface (acr templates list, -json goldens) uses.
func (r *Registry) List() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, *r.byName[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByClass returns the entries declaring the given error class, sorted by
// name.
func (r *Registry) ByClass(c errclass.Class) []Entry {
	var out []Entry
	for _, e := range r.List() {
		if e.Class == c {
			out = append(out, e)
		}
	}
	return out
}

// EngineTemplates is the default repair library: the builtin Table 1
// templates in registration order — exactly core.BuiltinTemplates order,
// so registry resolution is trajectory-identical to the pre-registry
// engine — each wrapped with its descriptor digest. Operator templates
// never join the default set implicitly (that would silently
// change every journaled session's digest); callers opt in by passing an
// entry's Described() template in core.Options.Templates.
// Universal pseudo-class operators are likewise excluded: they are the §6
// ablation set, selected by -universal.
func (r *Registry) EngineTemplates() []core.Template {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []core.Template
	for _, name := range r.order {
		e := r.byName[name]
		if e.Provenance == Builtin && e.Class.Table1() {
			out = append(out, described{Template: e.tmpl, digest: e.Digest})
		}
	}
	return out
}

// UniversalTemplates is the §6 ablation library: the universal
// pseudo-class operators in registration order, wrapped with their
// descriptor digests.
func (r *Registry) UniversalTemplates() []core.Template {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []core.Template
	for _, name := range r.order {
		e := r.byName[name]
		if !e.Class.Table1() {
			out = append(out, described{Template: e.tmpl, digest: e.Digest})
		}
	}
	return out
}

// Digest content-addresses the whole registry: the hash of every entry's
// descriptor digest, by sorted name. Two processes hold the same template
// set iff their registry digests match.
func (r *Registry) Digest() string {
	h := sha256.New()
	for _, e := range r.List() {
		fmt.Fprintf(h, "%s %s\n", e.Name, e.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SetConformant records a conformance verdict for a named template. It
// reports false when the name is not registered.
func (r *Registry) SetConformant(name string, ok bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, found := r.byName[name]
	if !found {
		return false
	}
	e.Conformant = ok
	return true
}

// NewBuiltin returns a fresh registry pre-populated with the builtin
// library — an isolated copy of Default's initial state, for harness runs
// and tests that record verdicts without touching the process registry.
func NewBuiltin() *Registry {
	r := New()
	registerBuiltins(r)
	return r
}

// Default is the process-wide registry, pre-populated with the builtin
// library. Its EngineTemplates feed core.Options.Templates whenever a
// binary linking this package leaves Templates nil.
var Default = New()

func init() {
	registerBuiltins(Default)
	core.SetTemplateSource(Default.EngineTemplates)
}
