package core

import "net/netip"

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
