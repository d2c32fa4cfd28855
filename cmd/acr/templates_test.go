package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acr/internal/tmplreg"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTemplatesListJSONGolden pins the exact JSON of `acr templates list
// -json`: name-sorted entries, every catalogue field, and the library
// digest. Any change to a template's name, class or pinned identity
// surfaces here as a reviewed diff, because the same identities decide
// whether journaled sessions can resume.
func TestTemplatesListJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := templatesList(&buf, true); err != nil {
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
		if err := templatesList(&buf, true); err != nil {
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

// TestTemplatesDescribeUnknownNamesValid: describing a template outside the
// library fails with an error that lists every valid name.
func TestTemplatesDescribeUnknownNamesValid(t *testing.T) {
	var buf bytes.Buffer
	err := runTemplatesDescribe(&buf, []string{"no-such-template"})
	if err == nil {
		t.Fatal("describe of an unknown template succeeded")
	}
	for _, e := range tmplreg.List() {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not name %s", err, e.Name)
		}
	}
	if err := runTemplatesDescribe(&buf, []string{"fix-peer-asn"}); err != nil || !strings.Contains(buf.String(), "fix-peer-asn") {
		t.Errorf("describe fix-peer-asn = %v:\n%s", err, buf.String())
	}
}
