package core_test

import (
	"sync"
	"testing"

	"acr/internal/core"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// fakeStore is an in-memory core.EvalStore with fault knobs, so the
// engine-side contract is tested without touching disk (internal/evalstore
// has its own tests; internal/chaos tests the two together).
type fakeStore struct {
	mu         sync.Mutex
	m          map[string]int
	gets, puts int
	corruptAll bool // every Get reports a corrupt (quarantined) entry
	failAll    bool // every Get misses and every Put drops (I/O fault)
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[string]int{}} }

func (f *fakeStore) Get(digest string) (int, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.corruptAll {
		delete(f.m, digest) // quarantine semantics: never answered twice
		return 0, false, true
	}
	if f.failAll {
		return 0, false, false
	}
	fit, ok := f.m[digest]
	return fit, ok, false
}

func (f *fakeStore) Put(digest string, fitness int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.failAll {
		return
	}
	if _, ok := f.m[digest]; !ok {
		f.m[digest] = fitness
	}
}

func (f *fakeStore) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// TestStoreWarmByteIdentity is the tentpole invariant at the engine layer:
// a run writing through a cold store, a run answered by the warm store,
// and a run with no store at all produce byte-identical Canonical() output
// — the store moves evaluations off the simulator without touching one
// decision. The cost counters are where the store is allowed to show.
func TestStoreWarmByteIdentity(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	base := core.Options{Strategy: core.BruteForce}

	cold := core.Repair(p, base)
	if !cold.Feasible {
		t.Fatalf("baseline infeasible: %s", cold.Summary())
	}
	if cold.StoreHits+cold.StoreMisses+cold.StoreCorrupt != 0 {
		t.Fatalf("storeless run counted store traffic: %s", cold.Summary())
	}

	st := newFakeStore()
	populate := base
	populate.Store = st
	first := core.Repair(p, populate)
	if got, want := first.Canonical(), cold.Canonical(); got != want {
		t.Fatalf("cold-store run diverges from storeless run\n--- storeless ---\n%s\n--- cold store ---\n%s", want, got)
	}
	if first.StoreHits != 0 || first.StoreMisses != first.CacheMisses {
		t.Fatalf("cold store counters: hits=%d misses=%d cacheMisses=%d",
			first.StoreHits, first.StoreMisses, first.CacheMisses)
	}
	if st.len() == 0 {
		t.Fatal("cold-store run wrote nothing back")
	}

	warm := core.Repair(p, populate)
	if got, want := warm.Canonical(), cold.Canonical(); got != want {
		t.Fatalf("warm-store run diverges from storeless run\n--- storeless ---\n%s\n--- warm ---\n%s", want, got)
	}
	if warm.StoreMisses != 0 {
		t.Fatalf("warm store still missed %d times", warm.StoreMisses)
	}
	if warm.StoreHits != warm.CacheMisses || warm.StoreHits == 0 {
		t.Fatalf("warm store hits=%d, want every in-memory miss (%d) answered", warm.StoreHits, warm.CacheMisses)
	}
	if warm.PrefixSimulations >= first.PrefixSimulations {
		t.Fatalf("warm store saved no simulations: warm=%d cold=%d",
			warm.PrefixSimulations, first.PrefixSimulations)
	}
}

// TestStoreFaultsAreInvisible runs the engine against a store that is
// all-corrupt, then one that fails every I/O: both must produce the
// storeless run's bytes, with the damage visible only in cost counters.
func TestStoreFaultsAreInvisible(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	base := core.Options{Strategy: core.BruteForce}
	want := core.Repair(p, base).Canonical()

	corrupt := newFakeStore()
	corrupt.corruptAll = true
	opts := base
	opts.Store = corrupt
	res := core.Repair(p, opts)
	if res.Canonical() != want {
		t.Fatalf("all-corrupt store changed the result\n--- want ---\n%s\n--- got ---\n%s", want, res.Canonical())
	}
	if res.StoreCorrupt == 0 || res.StoreHits != 0 {
		t.Fatalf("all-corrupt store counters: %s", res.Summary())
	}

	failing := newFakeStore()
	failing.failAll = true
	opts.Store = failing
	res = core.Repair(p, opts)
	if res.Canonical() != want {
		t.Fatalf("all-failing store changed the result\n--- want ---\n%s\n--- got ---\n%s", want, res.Canonical())
	}
	if res.StoreHits != 0 || res.StoreMisses != res.CacheMisses {
		t.Fatalf("all-failing store counters: %s", res.Summary())
	}
}

// TestSearchDigestExcludesStore: the store is infrastructure, not search
// steering — a journaled session must resume under a different cache
// directory, budget, or no store at all.
func TestSearchDigestExcludesStore(t *testing.T) {
	base := core.Options{Seed: 7, MaxIterations: 40}
	with := base
	with.Store = newFakeStore()
	if base.SearchDigest() != with.SearchDigest() {
		t.Fatal("Options.Store changed SearchDigest; resume across cache configurations would refuse")
	}
}

// TestStoreKeyedByProblem: a store key covers the problem, not just the
// configuration set. Figure 2 fills a store; the same configurations under
// one more intent — isolating DCN-S from PoP-B, which contradicts the
// reachability requirement — must then ignore those entries and match
// their own storeless run, not inherit Figure 2's fitness values.
func TestStoreKeyedByProblem(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	opts := core.Options{Strategy: core.BruteForce}
	st := newFakeStore()
	filled := opts
	filled.Store = st
	if res := core.Repair(p, filled); !res.Feasible || st.len() == 0 {
		t.Fatalf("populate run: %s (%d entries)", res.Summary(), st.len())
	}

	q := p
	q.Intents = append(append([]verify.Intent(nil), p.Intents...),
		verify.IsolationIntent("isolate-pop-b", scenario.PrefixDCNS, scenario.PrefixPoPB))
	want := core.Repair(q, opts)
	got := core.Repair(q, filled)
	if got.Canonical() != want.Canonical() {
		t.Fatalf("store filled by another problem changed the result (store hits %d)\n--- storeless ---\n%s\n--- over the store ---\n%s",
			got.StoreHits, want.Canonical(), got.Canonical())
	}

	// The topology's name labels a case and decides nothing: the same
	// problem under another name (an uploaded case is named after its
	// incident) still shares the store.
	renamed := scenario.Figure2()
	renamed.Topo.Name = "figure2-upload"
	if res := core.Repair(problemOf(renamed), filled); res.StoreMisses != 0 || res.StoreHits == 0 {
		t.Fatalf("renamed topology lost the store: %s", res.Summary())
	}
}
