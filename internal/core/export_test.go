package core

import (
	"context"
	"net/netip"

	"acr/internal/netcfg"
	"acr/internal/verify"
)

// SolveListValue and SolveList expose the unmemoised solve and its
// per-Context memo to the external tests, which can reach the incident
// corpus (internal/incidents imports this package).

func SolveListValue(ctx *Context, device, list string) ([]netip.Prefix, bool, string) {
	s := solveListValue(ctx, device, list)
	return s.want, s.ok, s.constraints
}

func (ctx *Context) SolveList(device, list string) ([]netip.Prefix, bool, string) {
	s := ctx.solveList(device, list)
	return s.want, s.ok, s.constraints
}

// WithoutStaticPrior returns o with the static-analysis localization prior
// turned off, for the tests that measure what the prior saves.
func WithoutStaticPrior(o Options) Options {
	o.noStaticPrior = true
	return o
}

// WithAudit returns o with audit run after every successful incremental
// check, on the verifier and edits checked, for the soundness audit
// (internal/oracle).
func WithAudit(o Options, audit func(context.Context, *verify.Incremental, []netcfg.EditSet) error) Options {
	o.audit = audit
	return o
}
