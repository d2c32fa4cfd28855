// Package tmplreg is the catalogue of the change-template library: what
// each template does and when an operator would reach for it. The library
// itself, its generation order and each template's pinned identity belong
// to internal/core; this package only describes them, so nothing here
// steers a search or keys a journal.
package tmplreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"acr/internal/core"
	"acr/internal/errclass"
)

// Entry describes one library template.
type Entry struct {
	Name string `json:"name"`
	// Description is a one-line summary of the edit the template makes.
	Description string `json:"description"`
	// Class is the Table 1 error class the template repairs, or a
	// universal pseudo-class.
	Class errclass.Class `json:"class"`
	// UseCase says when an operator would reach for this template.
	UseCase string `json:"useCase"`
	// Digest is the template's pinned identity, core.TemplateDigest.
	Digest string `json:"digest"`
}

// text is a template's display text: description and use-case.
type text struct{ description, useCase string }

// catalogue holds the display text of every library template, by name.
var catalogue = map[string]text{
	"symbolize-prefix-list": {
		"Replace a prefix-list's entries with an SMT-solved set satisfying the failing and passing reachability constraints",
		"A prefix-list filters traffic an intent requires, or admits traffic an intent forbids"},
	"add-redistribute-static": {
		"Insert a redistribute-static line into the bgp block of a device whose static route covers a failing destination",
		"A static route exists but is never announced because redistribution was dropped"},
	"add-static-origination": {
		"Insert a static route (solved over the failing destinations originating at the device) next to existing redistribution",
		"Redistribution is configured but the static route it should announce was deleted"},
	"add-pbr-permit-rule": {
		"Insert a permit rule for the failing flow ahead of the PBR rule that drops or redirects it",
		"A PBR policy redirects or drops traffic an intent requires to pass"},
	"remove-pbr-rule": {
		"Delete an entire PBR rule block whose redirect captures a failing flow",
		"A leftover redirect rule (e.g. a scrubber detour) still captures production traffic"},
	"add-peer-to-group": {
		"Insert a group-membership line for an ungrouped peer, one candidate per existing group",
		"A BGP peer lost its peer-group membership and with it the group's policies"},
	"remove-group-membership": {
		"Delete a peer's group-membership line",
		"A peer was added to a group whose policies it must not inherit"},
	"remove-policy-attach": {
		"Delete a route-policy attachment from a peer group",
		"A route map that should have been dis-enabled is still attached and filters valid routes"},
	"fix-peer-asn": {
		"Rewrite a peer's remote AS number to the SMT-solved value matching the neighbor's actual AS",
		"An eBGP session stays down because the configured remote AS is wrong"},
	"attach-policy-like-peers": {
		"Attach a locally defined route policy to a group, mirroring same-role devices",
		"A group lost a policy attachment its role peers still carry"},
	"copy-policy-from-role": {
		"Reconstruct a missing route-policy definition by copying it from a same-role device",
		"A dangling attach references a policy whose definition was deleted"},
	"universal-delete-line": {
		"Delete any single line covered by a failing test",
		"§6 universal ablation: the history-free \"this statement is wrong, drop it\" operator"},
	"universal-copy-from-role-peer": {
		"Insert, verbatim, lines a quorum of same-role devices carry but this device lacks",
		"§6 universal ablation: the naive plastic-surgery operator, parameters and all"},
}

// List returns the entry of every library template, Table 1's and the
// universal operators', sorted by name: the order every human-facing
// surface uses.
func List() []Entry {
	lib := append(core.BuiltinTemplates(), core.UniversalTemplates()...)
	out := make([]Entry, len(lib))
	for i, t := range lib {
		c := catalogue[t.Name()]
		out[i] = Entry{Name: t.Name(), Description: c.description, Class: t.ErrorClass(),
			UseCase: c.useCase, Digest: core.TemplateDigest(t.Name())}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the entry of the named template. The error names the valid
// templates.
func Get(name string) (Entry, error) {
	list := List()
	names := make([]string, len(list))
	for i, e := range list {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Entry{}, fmt.Errorf("unknown template %q; valid templates: %s", name, strings.Join(names, ", "))
}

// Digest content-addresses the library: the hash of every template's
// pinned identity, by sorted name.
func Digest() string {
	h := sha256.New()
	for _, e := range List() {
		fmt.Fprintf(h, "%s %s\n", e.Name, e.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Default hands out core's library, for callers that name it through the
// catalogue.
var Default library

type library struct{}

// EngineTemplates returns core.BuiltinTemplates: the Table 1 library in
// generation order.
func (library) EngineTemplates() []core.Template { return core.BuiltinTemplates() }

// UniversalTemplates returns core.UniversalTemplates: the §6 ablation
// library in generation order.
func (library) UniversalTemplates() []core.Template { return core.UniversalTemplates() }
