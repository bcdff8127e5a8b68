package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitCSV(t *testing.T) {
	cases := map[string][]string{
		"1,2,3": {"1", "2", "3"},
		"4":     {"4"},
		"":      nil,
		"1,,2":  {"1", "2"},
		",5,":   {"5"},
	}
	for in, want := range cases {
		got := splitCSV(in)
		if len(got) != len(want) {
			t.Fatalf("splitCSV(%q) = %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("splitCSV(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := run([]string{"nope"}); err == nil {
		t.Fatal("unknown subcommand must error")
	}
}

func TestDispatchTable4AndFig7(t *testing.T) {
	// table4 and fig7 need no workloads; fig7 also writes a CSV.
	dir := t.TempDir()
	if err := run([]string{"table4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", dir, "fig7"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "time_s,current_a,error_steps") {
		t.Fatalf("fig7.csv header wrong: %.40s", raw)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bits", "x", "table4"}); err == nil {
		t.Fatal("bad -bits must error")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing subcommand must error")
	}
}
