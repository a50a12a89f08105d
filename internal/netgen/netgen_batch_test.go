package netgen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
)

func TestGenerateBatchFiles(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: AllModes}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kern.go", "kernels_ordered.go", "kernels_func.go",
		"batch.go", "batch_ordered.go", "batch_amd64.go", "batch_amd64.s",
	}
	if len(files) != len(want) {
		t.Fatalf("got %d files, want %d", len(files), len(want))
	}
	for _, name := range want {
		if _, ok := files[name]; !ok {
			t.Errorf("missing file %s", name)
		}
	}
	for name, src := range files {
		if !bytes.HasPrefix(src, []byte("// Code generated by")) {
			t.Errorf("%s: missing generated-code header", name)
		}
		if strings.HasSuffix(name, ".s") {
			continue
		}
		fmted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: does not parse: %v", name, err)
		}
		if !bytes.Equal(fmted, src) {
			t.Errorf("%s: not gofmt-clean", name)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, name, src, parser.ParseComments); err != nil {
			t.Errorf("%s: parse error: %v", name, err)
		}
	}

	ordered := string(files["batch_ordered.go"])
	for _, fn := range []string{"func batchCols2Ordered[T cmp.Ordered](data []T, m int)", "func batchFlat7Ordered[T cmp.Ordered](data []T, m int)"} {
		if !strings.Contains(ordered, fn) {
			t.Errorf("batch_ordered.go: missing %q", fn)
		}
	}
	meta := string(files["batch.go"])
	for _, frag := range []string{
		"BatchMinWidth = 2", "BatchMaxWidth = 7",
		"func Batch[T cmp.Ordered](data []T, m int) bool",
		"func BatchFlat[T cmp.Ordered](data []T, width int) bool",
		"case []int:", "case []uint64:", "case []float64:",
		"func SetBatchSIMD(on bool) (prev bool)",
	} {
		if !strings.Contains(meta, frag) {
			t.Errorf("batch.go: missing %q", frag)
		}
	}
	asm := string(files["batch_amd64.s"])
	for _, frag := range []string{
		"TEXT ·simdCols4Int(SB), NOSPLIT, $0-16",
		"TEXT ·simdCols7Float64(SB), NOSPLIT, $0-16",
		"TEXT ·simdTransTo7(SB), NOSPLIT, $0-24",
		"TEXT ·simdTransFrom2(SB), NOSPLIT, $0-24",
		"TEXT ·cpuidex(SB), NOSPLIT, $0-24",
		"VPMINSQ", "VPMINUQ", "VCMPPD $0x11", "VPUNPCKLQDQ", "VSHUFI64X2",
	} {
		if !strings.Contains(asm, frag) {
			t.Errorf("batch_amd64.s: missing %q", frag)
		}
	}
}

func TestGenerateBatchDeterministic(t *testing.T) {
	opts := Options{Package: "kern", Command: "cmd", Modes: AllModes}
	a, err := Generate(opts, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(opts, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: two runs differ", name)
		}
	}
}

func TestGenerateBatchOnlyMode(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("got %d files, want 4", len(files))
	}
	if _, ok := files["kern.go"]; ok {
		t.Error("batch-only mode emitted the scalar meta file")
	}
}

// Widths beyond 16 get pure-Go batch kernels but no SIMD: one zmm
// register holds eight 64-bit lanes and the transpose tops out at 16
// columns.
func TestGenerateBatchWideWidths(t *testing.T) {
	progs := []*network.Program{netbuild.MergeExchange(20).Compile()}
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := files["batch_amd64.s"]; ok {
		t.Error("emitted AVX-512 kernels for widths beyond 16")
	}
	if !strings.Contains(string(files["batch_ordered.go"]), "func batchCols20Ordered[T cmp.Ordered](data []T, m int)") {
		t.Error("batch_ordered.go: missing the pure-Go width-20 kernel")
	}
	if strings.Contains(string(files["batch.go"]), "simdCols") {
		t.Error("batch.go: dispatches to AVX-512 kernels that were not emitted")
	}

	progs = []*network.Program{netbuild.BestKnown(4).Compile(), netbuild.MergeExchange(20).Compile()}
	files, err = Generate(Options{Package: "kern", Command: "cmd", Modes: []Mode{ModeBatch}}, progs)
	if err != nil {
		t.Fatal(err)
	}
	asm, ok := files["batch_amd64.s"]
	if !ok {
		t.Fatal("mixed widths: no AVX-512 file for the narrow kernel")
	}
	if strings.Contains(string(asm), "simdCols20") {
		t.Error("batch_amd64.s: emitted a width-20 SIMD kernel")
	}
}

func TestGenerateBatchErrors(t *testing.T) {
	progs := testPrograms(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"duplicate mode", Options{Package: "p", Command: "c", Modes: []Mode{ModeBatch, ModeBatch}}},
		{"unknown mode", Options{Package: "p", Command: "c", Modes: []Mode{Mode(99)}}},
		{"package collision", Options{Package: "batch", Command: "c", Modes: []Mode{ModeBatch}}},
		{"no batch family", Options{Package: "p", Command: "c", Kinds: []Kind{KindFunc}, Modes: []Mode{ModeBatch}}},
	} {
		if _, err := Generate(tc.opts, progs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestBatchScheduleMirrorsScalar pins that both emission modes compile
// the same program into the same comparator schedule: the scalar
// kernel's compare-and-swap exchanges and the columnar batch kernel's
// min/max exchanges name the same (min, max) local pairs, in the same
// order.
func TestBatchScheduleMirrorsScalar(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "cmd", Modes: AllModes}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	scalarOp := regexp.MustCompile(`^if v(\d+) < v(\d+) \{$`)
	batchOp := regexp.MustCompile(`^v(\d+), v(\d+) = min\(`)
	// extract lists fn's exchanges as "lo,hi" pairs; swap says the
	// pattern captures hi before lo.
	extract := func(src, fn string, op *regexp.Regexp, swap bool) []string {
		body := string(src)
		i := strings.Index(body, "func "+fn+"[")
		if i < 0 {
			t.Fatalf("missing func %s", fn)
		}
		body = body[i:]
		if j := strings.Index(body, "\n}\n"); j >= 0 {
			body = body[:j]
		}
		var ops []string
		for _, line := range strings.Split(body, "\n") {
			if m := op.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
				lo, hi := m[1], m[2]
				if swap {
					lo, hi = hi, lo
				}
				ops = append(ops, lo+","+hi)
			}
		}
		return ops
	}
	for _, n := range []int{2, 4, 7} {
		scalar := extract(string(files["kernels_ordered.go"]), fmt.Sprintf("Sort%dOrdered", n), scalarOp, true)
		batch := extract(string(files["batch_ordered.go"]), fmt.Sprintf("batchCols%dOrdered", n), batchOp, false)
		if len(scalar) == 0 || len(scalar) != len(batch) {
			t.Fatalf("n=%d: %d scalar exchanges vs %d batch exchanges", n, len(scalar), len(batch))
		}
		for i := range scalar {
			if scalar[i] != batch[i] {
				t.Errorf("n=%d exchange %d: scalar %q != batch %q", n, i, scalar[i], batch[i])
			}
		}
	}
}
