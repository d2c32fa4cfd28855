package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"

	"acr/internal/journal"
	"acr/internal/netcfg"
)

// EvalStore is the persistent layer under the in-memory evaluation cache:
// a store of validated fitness values shared across runs and processes,
// keyed by evalCache.storeKey (internal/evalstore implements it; core only
// sees the interface so the dependency points outward). The store is
// advisory by contract — implementations must degrade every failure to a
// miss — and its answers are consulted only for digests the in-memory
// cache does not hold, so a warm store changes which validations simulate,
// never what any validation decides.
type EvalStore interface {
	// Get looks a digest up. ok reports a verified entry; corrupt reports
	// that an entry existed but failed integrity verification (the lookup
	// is still a miss — the engine re-simulates and may re-store).
	Get(digest string) (fitness int, ok, corrupt bool)
	// Put stores a validated fitness. Implementations never fail the
	// caller; a lost write simply stays a miss.
	Put(digest string, fitness int)
}

// evalCache is the run-scoped content-addressed fitness cache: it maps the
// canonical digest of a post-edit configuration set to the fitness
// (failing-intent count) validation computed for it. Proposals that
// resurface — across iterations, widening rounds, or a crash→resume
// boundary — are answered without re-simulating the network. Fitness is a
// pure function of the configuration set under a fixed problem, so hits
// are exact, not approximate.
//
// The cache is not safe for concurrent use and does not need to be: only
// the engine goroutine touches it, one proposal at a time in proposal
// order, which is what keeps cache state — and therefore the
// CacheHits/CacheMisses counters — deterministic.
type evalCache struct {
	fitness map[string]int
	// cfg memoizes per-config content digests by pointer. Only long-lived
	// configurations (population members' post-edit maps share the
	// parent's pointers for unedited devices) are memoized; the transient
	// configs produced while digesting a proposal are hashed and dropped.
	cfg map[*netcfg.Config]string
	// store is the persistent layer (nil = memory only). It is consulted
	// only for digests missing from memory and written back only with
	// freshly simulated fitness values, under storeKey.
	store EvalStore
	// problem is the run's Problem.storeFingerprint: a store outlives the
	// problem, so its keys must name the problem too.
	problem string
	// storeCorrupt counts store entries that failed integrity verification
	// during this run (folded into Result.StoreCorrupt at the end).
	storeCorrupt int
}

// newEvalCache builds the run's cache over opts.Store, if any.
func newEvalCache(p Problem, opts Options) *evalCache {
	ec := &evalCache{
		fitness: map[string]int{},
		cfg:     map[*netcfg.Config]string{},
	}
	if opts.Store != nil {
		ec.store, ec.problem = opts.Store, p.storeFingerprint()
	}
	return ec
}

// configDigest hashes one configuration's exact line content (length-framed
// so no two line slices collide), memoizing by pointer.
func (c *evalCache) configDigest(cfg *netcfg.Config) string {
	if d, ok := c.cfg[cfg]; ok {
		return d
	}
	d := hashLines(cfg)
	c.cfg[cfg] = d
	return d
}

func hashLines(cfg *netcfg.Config) string {
	h := sha256.New()
	var buf []byte // "<len>:<line>", reused across lines
	for i := 1; i <= cfg.NumLines(); i++ {
		ln := cfg.Line(i)
		buf = strconv.AppendInt(buf[:0], int64(len(ln)), 10)
		buf = append(append(buf, ':'), ln...)
		h.Write(buf)
	}
	return hexSum(h)
}

// hexSum renders h's sum in hex.
func hexSum(h hash.Hash) string {
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], h.Sum(sum[:0]))
	return string(text[:])
}

// digest computes the content address of a proposal: the digest of the
// configuration set validating it verifies, configs, which is its
// parent's configurations with the update's edits applied
// (verify.Incremental.Apply). Devices configs shares with the parent hash
// from the memo; an edited device is hashed and dropped.
func (c *evalCache) digest(parent *candidate, configs map[string]*netcfg.Config) string {
	h := sha256.New()
	var buf []byte // "<device>\x00<config digest>\n", reused across devices
	for _, d := range parent.devices {
		var cd string
		if cfg := configs[d]; cfg == parent.configs[d] {
			cd = c.configDigest(cfg)
		} else {
			cd = hashLines(cfg) // transient: not worth memoizing
		}
		buf = append(append(append(append(buf[:0], d...), 0), cd...), '\n')
		h.Write(buf)
	}
	return hexSum(h)
}

// get looks a digest up.
func (c *evalCache) get(d string) (int, bool) {
	fit, ok := c.fitness[d]
	return fit, ok
}

// put stores a successfully validated candidate's fitness.
func (c *evalCache) put(d string, fitness int) {
	if _, ok := c.fitness[d]; !ok {
		c.fitness[d] = fitness
	}
}

// storeKey is the persistent store's key for configuration-set digest d:
// SHA-256 over the problem fingerprint and d.
func (c *evalCache) storeKey(d string) string {
	sum := sha256.Sum256([]byte(c.problem + d))
	return hex.EncodeToString(sum[:])
}

// storeGet consults the persistent store for a digest the in-memory cache
// missed. Corrupt entries are tallied (the store has already dropped them)
// and reported as misses. Reads happen in proposal order, so their
// sequence — and therefore any fault-injection schedule against them — is
// identical across runs.
func (c *evalCache) storeGet(d string) (int, bool) {
	if c.store == nil {
		return 0, false
	}
	fit, ok, corrupt := c.store.Get(c.storeKey(d))
	if corrupt {
		c.storeCorrupt++
	}
	if !ok || fit < 0 {
		return 0, false
	}
	return fit, true
}

// storePut writes a simulated fitness through to the persistent store.
func (c *evalCache) storePut(d string, fitness int) {
	if c.store == nil || fitness < 0 {
		return
	}
	c.store.Put(c.storeKey(d), fitness)
}

// warm preloads the cache from a resumed session's journaled candidate
// events. Only candidates at or before the restored checkpoint's iteration
// are loaded: those are exactly the entries the straight-through run's
// cache held at that boundary (later candidates are regenerated by the
// resumed loop), which is what keeps a resumed run's hit/miss counters —
// and therefore Result.Canonical — byte-identical to an uninterrupted
// run's. Journals written before digests existed warm nothing.
//
// Warmed entries are also written through to the persistent store: a
// session resumed against another or an emptied store directory replays
// fitness values that store may never have seen, and writing them back
// pays the crashed run's evaluations forward. Put skips digests the store
// already holds, so re-warming an already-shared store is free.
func (c *evalCache) warm(cands []journal.Candidate, upTo int) {
	for _, cd := range cands {
		if cd.Iteration <= upTo && cd.Digest != "" && cd.Fitness >= 0 {
			c.put(cd.Digest, cd.Fitness)
			c.storePut(cd.Digest, cd.Fitness)
		}
	}
}
