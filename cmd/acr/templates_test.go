package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"acr/internal/tmplreg"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTemplatesListJSONGolden pins the exact JSON of `acr templates list
// -json` over the builtin registry: name-sorted entries, every descriptor
// field, and the registry digest. Any change to a builtin descriptor —
// rename, reclassification, version bump — surfaces here as a reviewed
// diff, because the same digests decide whether journaled sessions can
// resume.
func TestTemplatesListJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := templatesList(&buf, tmplreg.NewBuiltin(), true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "templates_list.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/acr -run TemplatesListJSONGolden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("templates list JSON drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTemplatesListDeterministic: repeated renders are byte-identical —
// the ordering contract -json consumers rely on.
func TestTemplatesListDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := templatesList(&buf, tmplreg.NewBuiltin(), true); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("render %d differs from the first", i)
		}
	}
}

// TestTemplatesConformNamesTrimmed: -names trims each name and drops empty
// ones, as -seeds does, so the unknown-template error quotes the bare
// names rather than " no-such-a" or "".
func TestTemplatesConformNamesTrimmed(t *testing.T) {
	err := runTemplatesConform([]string{"-names", "no-such-b, no-such-a,"})
	const want = `conformance: unknown template(s) "no-such-a", "no-such-b"`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}
