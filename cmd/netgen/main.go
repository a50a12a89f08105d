// netgen compiles comparator networks into standalone branchless Go
// sorting kernels (via internal/netgen) and writes them out as a
// generated package.
//
// usage:
//
//	netgen -preset sortkernels [-out DIR]
//	netgen -net FAMILY -widths 2..16 -pkg NAME [-mode MODE] -out DIR
//	netgen -net file:PATH -pkg NAME [-mode MODE] -out DIR
//
// The -preset form regenerates the committed sortkernels/ package:
// one kernel per width 2..16 from the curated depth-optimal networks
// (netbuild.BestKnown), for both kernel families and every emission
// mode — the per-slice scalar kernels plus the batch kernels (generic
// pure-Go columnar/row-major, and the AVX-512 columnar kernels with
// their transpose helpers on amd64). `make netgen-check` regenerates into a
// scratch directory and fails on any drift between the committed
// files and what the generator emits.
//
// -net accepts the construction families the other tools use
// (bestknown, depthoptimal, bitonic, oddeven, mergeexchange,
// insertion, transposition, pratt) plus file:<path> (circuit text
// format) and regfile:<path> (register text format), whose width comes
// from the file itself. -widths takes comma-separated entries, each a
// width or an a..b range. -mode selects the emission modes: scalar
// (default), batch, or all; it applies to -net generation only —
// presets fix their own modes.
//
// Flag combinations that would silently drop a flag are rejected:
// -preset conflicts with -net, -pkg, -widths and -mode.
//
// Emission is deterministic: same networks, same flags, same bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/netgen"
	"shufflenet/internal/network"
)

var builders = map[string]func(int) *network.Network{
	"bestknown":     netbuild.BestKnown,
	"depthoptimal":  netbuild.DepthOptimal,
	"bitonic":       netbuild.Bitonic,
	"oddeven":       netbuild.OddEvenMergeSort,
	"mergeexchange": netbuild.MergeExchange,
	"insertion":     netbuild.Insertion,
	"transposition": netbuild.OddEvenTransposition,
	"pratt":         netbuild.Pratt,
}

// parseWidths accepts "2..16", "4,8,16", "2..8,12,16".
func parseWidths(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, ".."); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad range %q", part)
			}
			for n := a; n <= b; n++ {
				out = append(out, n)
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad width %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseModes maps the -mode flag to emission modes; empty means the
// scalar default.
func parseModes(mode string) ([]netgen.Mode, error) {
	switch mode {
	case "", "scalar":
		return nil, nil
	case "batch":
		return []netgen.Mode{netgen.ModeBatch}, nil
	case "all":
		return netgen.AllModes, nil
	}
	return nil, fmt.Errorf("unknown -mode %q (want scalar, batch or all)", mode)
}

// sortkernelsDoc is the package comment of the committed preset.
var sortkernelsDoc = []string{
	"Package sortkernels holds branchless sorting-network kernels for",
	"widths 2..16, generated from the curated depth-optimal networks in",
	"internal/netbuild. Each kernel keeps the whole slice in locals and",
	"applies a fixed compare-exchange schedule, level by level, with no",
	"data-dependent branches at integer element types — the comparator",
	"count is the depth-optimal network's size, and the level grouping",
	"leaves independent exchanges adjacent for the CPU to overlap. One",
	"kernel family is generic over cmp.Ordered (Sort<N>Ordered, behind",
	"Ordered), the other over a less function (Sort<N>Func, behind Func).",
	"",
	"The batch entry points (Batch, BatchFlat) sort many same-width",
	"slices per call: generic column-major and row-major pure-Go kernels",
	"for every width, plus AVX-512 columnar kernels for int, uint64 and",
	"float64 and layout transposes on amd64, selected at init when the",
	"CPU supports them.",
	"",
	"Regenerate with `make netgen`; `make netgen-check` fails the build",
	"if the committed files drift from what cmd/netgen emits.",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "netgen: "+err.Error())
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("netgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", "named generation preset: sortkernels")
	net := fs.String("net", "", "network source: construction family, file:<path>, or regfile:<path>")
	widths := fs.String("widths", "2..16", "widths to generate for construction families")
	pkg := fs.String("pkg", "", "generated package name")
	mode := fs.String("mode", "", "emission modes for -net: scalar (default), batch, or all")
	out := fs.String("out", "", "output directory (default ./<pkg>)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	opts := netgen.Options{}
	var progs []*network.Program

	switch {
	case *preset != "":
		for _, conflict := range []string{"net", "pkg", "widths", "mode"} {
			if set[conflict] {
				return fmt.Errorf("-preset conflicts with -%s (presets fix their own networks, package and modes)", conflict)
			}
		}
		if *preset != "sortkernels" {
			return fmt.Errorf("unknown preset %q (want sortkernels)", *preset)
		}
		opts.Package = "sortkernels"
		opts.Command = "go run ./cmd/netgen -preset sortkernels"
		opts.Doc = sortkernelsDoc
		opts.Modes = netgen.AllModes
		opts.Provenance = map[int]string{}
		for n := 2; n <= 16; n++ {
			c := netbuild.DepthOptimal(n)
			opts.Provenance[n] = fmt.Sprintf("depth-optimal (proven minimum %d)", netbuild.OptimalDepths[n])
			progs = append(progs, c.Compile())
		}
	case *net == "":
		return fmt.Errorf("need -preset or -net (see -h)")
	default:
		if *pkg == "" {
			return fmt.Errorf("need -pkg with -net")
		}
		modes, err := parseModes(*mode)
		if err != nil {
			return err
		}
		opts.Package = *pkg
		opts.Modes = modes
		opts.Command = fmt.Sprintf("go run ./cmd/netgen -net %s -widths %s -pkg %s", *net, *widths, *pkg)
		if modes != nil {
			opts.Command += " -mode " + *mode
		}
		switch {
		case strings.HasPrefix(*net, "file:"):
			f, err := os.Open(strings.TrimPrefix(*net, "file:"))
			if err != nil {
				return err
			}
			circ, err := network.ReadText(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("parse: %v", err)
			}
			progs = append(progs, circ.Compile())
		case strings.HasPrefix(*net, "regfile:"):
			f, err := os.Open(strings.TrimPrefix(*net, "regfile:"))
			if err != nil {
				return err
			}
			reg, err := network.ReadRegisterText(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("parse: %v", err)
			}
			progs = append(progs, reg.Compile())
		default:
			build, ok := builders[*net]
			if !ok {
				return fmt.Errorf("unknown family %q", *net)
			}
			ns, err := parseWidths(*widths)
			if err != nil {
				return err
			}
			for _, n := range ns {
				progs = append(progs, build(n).Compile())
			}
		}
	}

	files, err := netgen.Generate(opts, progs)
	if err != nil {
		return err
	}

	dir := *out
	if dir == "" {
		dir = opts.Package
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "netgen: wrote %d files to %s (package %s, %d widths)\n", len(files), dir, opts.Package, len(progs))
	return nil
}
