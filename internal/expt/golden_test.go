package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// checkGolden compares a rendered table or CSV with testdata/<name> byte
// for byte. The files pin the harness output: a refactor of the
// experiments must leave every table and CSV exactly as it was.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden file\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
