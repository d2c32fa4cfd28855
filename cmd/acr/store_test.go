package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestRepairStoreCorruption drives `acr repair -cache-dir` and `acr cache`
// over one evaluation store: a populating run and a warm run give the cold
// run's canonical SHA-256, the warm one answering from the store alone; a
// store.log damaged three ways (bit rot in a middle frame, a torn last
// frame, a zeroed tail) still gives that digest, with the damage visible
// only in storeCorrupt; `cache verify` fails until `cache gc` compacts the
// log, and the directory holds the log and its lock alone.
func TestRepairStoreCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	cacheDir := filepath.Join(t.TempDir(), "cachedir")
	run := []string{"repair", "-builtin", "figure2", "-strategy", "bruteforce", "-seed", "7", "-o", "json"}
	repair := func(args ...string) map[string]any {
		t.Helper()
		out, ps := runAcr(t, 0, append(run, args...)...)
		if ps.ExitCode() != exitFeasible {
			t.Fatalf("acr repair %v exited %d, want %d:\n%s", args, ps.ExitCode(), exitFeasible, out)
		}
		return decodeResult(t, out)
	}
	counter := func(r map[string]any, k string) int64 {
		n, _ := asInt(r[k])
		return n
	}
	want := repair()["canonicalSha256"]

	populate := repair("-cache-dir", cacheDir)
	if populate["canonicalSha256"] != want || counter(populate, "storeMisses") == 0 {
		t.Fatalf("populating run: canonicalSha256 %v, storeMisses %v; want %v and > 0",
			populate["canonicalSha256"], populate["storeMisses"], want)
	}
	warm := repair("-cache-dir", cacheDir)
	if warm["canonicalSha256"] != want || counter(warm, "storeHits") == 0 || counter(warm, "storeMisses") != 0 {
		t.Fatalf("warm run: canonicalSha256 %v, storeHits %v, storeMisses %v; want %v, > 0 and 0",
			warm["canonicalSha256"], warm["storeHits"], warm["storeMisses"], want)
	}

	// Split store.log into frames ([4-byte length][4-byte CRC][payload]),
	// flip the low bit of a middle frame's fitness digit (its payload ends
	// in the digit and a closing brace), cut the last frame in half and
	// append 64 zero bytes.
	logPath := filepath.Join(cacheDir, "store.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][2]int // offset, length
	off := 0
	for off+8 <= len(data) {
		n := 8 + int(binary.BigEndian.Uint32(data[off:off+4]))
		frames = append(frames, [2]int{off, n})
		off += n
	}
	if off != len(data) || len(frames) < 3 {
		t.Fatalf("store.log: %d frames ending at %d of %d bytes, want >= 3 ending at the end", len(frames), off, len(data))
	}
	mid := frames[len(frames)/2]
	data[mid[0]+mid[1]-2] ^= 0x01
	last := frames[len(frames)-1]
	data = append(data[:last[0]+last[1]/2], make([]byte, 64)...)
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := repair("-cache-dir", cacheDir)
	if corrupt["canonicalSha256"] != want || counter(corrupt, "storeCorrupt") == 0 {
		t.Fatalf("run on the damaged store: canonicalSha256 %v, storeCorrupt %v; want %v and > 0",
			corrupt["canonicalSha256"], corrupt["storeCorrupt"], want)
	}

	cache := func(wantCode int, args ...string) []byte {
		t.Helper()
		out, ps := runAcr(t, 0, append([]string{"cache"}, append(args, "-cache-dir", cacheDir)...)...)
		if ps.ExitCode() != wantCode {
			t.Fatalf("acr cache %v exited %d, want %d:\n%s", args, ps.ExitCode(), wantCode, out)
		}
		return out
	}
	cache(0, "stats")
	cache(1, "verify") // the flipped middle frame is still in the log
	var gc map[string]any
	if err := json.Unmarshal(cache(0, "gc", "-json"), &gc); err != nil {
		t.Fatalf("cache gc -json: %v", err)
	}
	cache(0, "verify")

	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"store.lock", "store.log"}) {
		t.Errorf("cache directory holds %v, want [store.lock store.log]", names)
	}
}
