package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagValidation pins the CLI contract: flag combinations that
// would silently drop a flag are errors, not surprises.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no source", []string{}, "need -preset or -net"},
		{"unknown preset", []string{"-preset", "nope"}, `unknown preset "nope"`},
		{"preset with net", []string{"-preset", "sortkernels", "-net", "bitonic"}, "-preset conflicts with -net"},
		{"preset with pkg", []string{"-preset", "sortkernels", "-pkg", "x"}, "-preset conflicts with -pkg"},
		{"preset with widths", []string{"-preset", "sortkernels", "-widths", "2..4"}, "-preset conflicts with -widths"},
		{"preset with mode", []string{"-preset", "sortkernels", "-mode", "batch"}, "-preset conflicts with -mode"},
		{"net without pkg", []string{"-net", "bitonic"}, "need -pkg with -net"},
		{"unknown mode", []string{"-net", "bitonic", "-pkg", "x", "-mode", "vector"}, `unknown -mode "vector"`},
		{"unknown family", []string{"-net", "quantum", "-pkg", "x"}, `unknown family "quantum"`},
		{"bad widths", []string{"-net", "bitonic", "-pkg", "x", "-widths", "8..2"}, `bad range "8..2"`},
		{"positional junk", []string{"-net", "bitonic", "-pkg", "x", "extra"}, "unexpected arguments: extra"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			err := run(tc.args, &out, &errw)
			if err == nil {
				t.Fatalf("run(%q) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) error %q, want it to contain %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestRunModes checks the -mode flag end to end: each mode writes its
// own file set.
func TestRunModes(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		want, stop []string
	}{
		{"scalar", []string{"kern.go", "kernels_ordered.go"}, []string{"batch.go"}},
		{"batch", []string{"batch.go", "batch_ordered.go", "batch_amd64.s"}, []string{"kern.go", "kernels_ordered.go"}},
		{"all", []string{"kern.go", "kernels_ordered.go", "batch.go", "batch_amd64.go"}, nil},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			dir := t.TempDir()
			var out, errw strings.Builder
			args := []string{"-net", "bestknown", "-widths", "4,8", "-pkg", "kern", "-mode", tc.mode, "-out", dir}
			if err := run(args, &out, &errw); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.want {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Errorf("mode %s: missing %s", tc.mode, name)
				}
			}
			for _, name := range tc.stop {
				if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
					t.Errorf("mode %s: unexpectedly wrote %s", tc.mode, name)
				}
			}
			if !strings.Contains(out.String(), "netgen: wrote") {
				t.Errorf("missing success line, got %q", out.String())
			}
		})
	}
}
