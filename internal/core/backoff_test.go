package core

import (
	"testing"
	"time"
)

// TestRetryJitterDeterministicAndBounded pins the full-jitter contract:
// the per-candidate stream is a pure function of (seed, candidate desc),
// so the backoff schedule cannot depend on validation order, and every
// draw stays within the doubling window [0, backoff].
func TestRetryJitterDeterministicAndBounded(t *testing.T) {
	const seed, desc = int64(42), "set-metric @ A:3"
	draw := func() []time.Duration {
		rng := retryRNG(seed, desc)
		out := make([]time.Duration, 0, 8)
		backoff := 250 * time.Millisecond
		for i := 0; i < 8; i++ {
			out = append(out, jitterBackoff(rng, backoff))
			backoff *= 2
		}
		return out
	}
	a, b := draw(), draw()
	backoff := 250 * time.Millisecond
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v != %v — jitter stream is not deterministic", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] > backoff {
			t.Fatalf("draw %d: %v outside [0, %v]", i, a[i], backoff)
		}
		backoff *= 2
	}

	// Distinct candidates draw from distinct streams (otherwise every
	// retry storm across the population would still synchronize).
	other := retryRNG(seed, "set-metric @ B:7")
	same := true
	this := retryRNG(seed, desc)
	for i := 0; i < 8; i++ {
		if this.Int63() != other.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different candidate descs produced the same jitter stream")
	}

	if d := jitterBackoff(retryRNG(seed, desc), 0); d != 0 {
		t.Fatalf("jitterBackoff(0) = %v, want 0", d)
	}
}
