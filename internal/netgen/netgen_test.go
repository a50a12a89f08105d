package netgen

import (
	"bytes"
	"go/format"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/perm"
)

func testPrograms(t *testing.T) []*network.Program {
	t.Helper()
	progs := []*network.Program{
		netbuild.BestKnown(2).Compile(),
		netbuild.BestKnown(4).Compile(),
		netbuild.BestKnown(7).Compile(),
	}
	return progs
}

func TestGenerateEmitsAllFamilies(t *testing.T) {
	files, err := Generate(Options{Package: "kern", Command: "go run ./cmd/netgen -preset test"}, testPrograms(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"kern.go", "kernels_ordered.go", "kernels_func.go"}
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
		// gofmt-clean: formatting is idempotent.
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
	ordered := string(files["kernels_ordered.go"])
	for _, fn := range []string{"func Sort2Ordered[T cmp.Ordered](s []T)", "func Sort4Ordered[T cmp.Ordered](s []T)", "func Sort7Ordered[T cmp.Ordered](s []T)"} {
		if !strings.Contains(ordered, fn) {
			t.Errorf("kernels_ordered.go: missing %q", fn)
		}
	}
	meta := string(files["kern.go"])
	for _, frag := range []string{"MaxWidth = 7", "MinWidth = 2", "func Ordered[T cmp.Ordered](s []T) bool", "func Func[T any](s []T, less func(a, b T) bool) bool", "\t\treturn false\n\t}\n\treturn true\n}", "func Levels(n int)", "func Depth(n int)"} {
		if !strings.Contains(meta, frag) {
			t.Errorf("kern.go: missing %q", frag)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Package: "kern", Command: "cmd"}
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

// The emitted schedule data (what the kernels are generated from) must
// agree with the source Program on arbitrary inputs — including for
// register-model programs, whose output permutation the kernels bake
// into the final stores.
func TestScheduleMatchesProgram(t *testing.T) {
	reg := network.NewRegister(8)
	reg.AddStep(network.Step{Pi: perm.Shuffle(8), Ops: []network.Op{network.OpPlus, network.OpMinus, network.OpSwap, network.OpNone}})
	reg.AddStep(network.Step{Pi: perm.Shuffle(8), Ops: []network.Op{network.OpPlus, network.OpPlus, network.OpMinus, network.OpSwap}})
	reg.AddStep(network.Step{Pi: perm.Shuffle(8), Ops: []network.Op{network.OpSwap, network.OpPlus, network.OpNone, network.OpMinus}})
	progs := append(testPrograms(t), reg.Compile())
	rng := rand.New(rand.NewSource(7))
	for _, p := range progs {
		n := p.Wires()
		levels := p.Levels()
		perm := p.OutputPerm()
		for trial := 0; trial < 200; trial++ {
			in := make([]int, n)
			for i := range in {
				in[i] = rng.Intn(10)
			}
			// interpret the emitted schedule exactly as a kernel would
			v := append([]int(nil), in...)
			for _, lv := range levels {
				for _, pr := range lv {
					if v[pr[1]] < v[pr[0]] {
						v[pr[0]], v[pr[1]] = v[pr[1]], v[pr[0]]
					}
				}
			}
			out := make([]int, n)
			for i := range out {
				out[i] = v[perm[i]]
			}
			want := p.Eval(in)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("n=%d trial %d: schedule interp %v != Eval %v (in %v)", n, trial, out, want, in)
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	four := netbuild.BestKnown(4).Compile()
	cases := []struct {
		name  string
		opts  Options
		progs []*network.Program
	}{
		{"empty package", Options{Command: "c"}, []*network.Program{four}},
		{"no programs", Options{Package: "p", Command: "c"}, nil},
		{"duplicate width", Options{Package: "p", Command: "c"}, []*network.Program{four, four}},
		{"too wide", Options{Package: "p", Command: "c"}, []*network.Program{netbuild.MergeExchange(65).Compile()}},
	}
	for _, tc := range cases {
		if _, err := Generate(tc.opts, tc.progs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
