package network

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WriteText serializes the network in a line-oriented text format:
//
//	wires <n>
//	level <a0>:<b0> <a1>:<b1> ...
//
// with one "level" line per level (possibly with no pairs for an empty
// level). Each pair a:b is a comparator placing the smaller value on
// wire a and the larger on wire b.
func (c *Network) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "wires %d\n", c.n)
	for _, lv := range c.levels {
		bw.WriteString("level")
		for _, cm := range lv {
			fmt.Fprintf(bw, " %d:%d", cm.Min, cm.Max)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// maxLineBytes caps one line of a text, register or DOT body. A line
// at or beyond it fails the parse with bufio.ErrTooLong.
const maxLineBytes = 16 << 20

// newLineScanner builds the scanner all the text parsers share. It
// gets no initial buffer: the scanner starts at 4 KiB and doubles up
// to the longest line, so a parse allocates in proportion to the body
// rather than zeroing a fixed megabyte. Its split function terminates
// a line at "\n", "\r\n", or a lone "\r":
// network bodies arrive over HTTP from clients that send CRLF (and
// occasionally bare-CR) line endings, and with the stock ScanLines a
// bare-CR body collapses into a single "line" in which '\r' acts as a
// field separator — the parse then fails with a misleading error
// attributed to line 1. Trailing whitespace on a line is the callers'
// concern (they TrimSpace), but the terminator accounting here is what
// keeps reported line numbers 1-based and honest for every ending
// style.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	sc.Split(func(data []byte, atEOF bool) (advance int, token []byte, err error) {
		for i := 0; i < len(data); i++ {
			switch data[i] {
			case '\n':
				return i + 1, data[:i], nil
			case '\r':
				if i+1 < len(data) {
					if data[i+1] == '\n' {
						return i + 2, data[:i], nil
					}
					return i + 1, data[:i], nil
				}
				if atEOF {
					return i + 1, data[:i], nil
				}
				// Might be the first byte of a \r\n split across reads.
				return 0, nil, nil
			}
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	return sc
}

// ReadText parses the format written by WriteText and validates the
// result. Lines may end in "\n", "\r\n", or a lone "\r", and may carry
// trailing whitespace; parse errors report 1-based line numbers.
func ReadText(r io.Reader) (*Network, error) {
	sc := newLineScanner(r)
	var net *Network
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "wires":
			if net != nil {
				return nil, fmt.Errorf("line %d: duplicate wires declaration", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want \"wires <n>\"", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("line %d: bad wire count %q", lineNo, fields[1])
			}
			net = New(n)
		case "level":
			if net == nil {
				return nil, fmt.Errorf("line %d: level before wires declaration", lineNo)
			}
			lv := make(Level, len(fields)-1)
			for i, f := range fields[1:] {
				a, b, ok := strings.Cut(f, ":")
				if !ok {
					return nil, fmt.Errorf("line %d: bad comparator %q", lineNo, f)
				}
				x, err1 := strconv.Atoi(a)
				y, err2 := strconv.Atoi(b)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("line %d: bad comparator %q", lineNo, f)
				}
				lv[i] = Comparator{Min: x, Max: y}
			}
			// Each line is checked as level 0 of its own, so a fault
			// reads "line N: level 0: …".
			if err := levelError(0, lv, net.n); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			net.levels = append(net.levels, lv)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("no wires declaration found")
	}
	return net, nil
}

// WriteDOT emits a Graphviz rendering of the network: wires are
// horizontal rails, comparators are vertical edges, levels are ranked
// columns. Intended for inspection of small networks.
func (c *Network) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n  node [shape=point];\n", name)
	// node id: w<wire>_<column>, columns 0..depth
	for wi := 0; wi < c.n; wi++ {
		fmt.Fprintf(bw, "  in%d [shape=plaintext, label=\"w%d\"];\n", wi, wi)
		fmt.Fprintf(bw, "  in%d -> w%d_0 [arrowhead=none];\n", wi, wi)
	}
	for col := 0; col <= len(c.levels); col++ {
		fmt.Fprintf(bw, "  { rank=same;")
		for wi := 0; wi < c.n; wi++ {
			fmt.Fprintf(bw, " w%d_%d;", wi, col)
		}
		fmt.Fprintln(bw, " }")
	}
	for wi := 0; wi < c.n; wi++ {
		for col := 0; col < len(c.levels); col++ {
			fmt.Fprintf(bw, "  w%d_%d -> w%d_%d [arrowhead=none];\n", wi, col, wi, col+1)
		}
	}
	for li, lv := range c.levels {
		for _, cm := range lv {
			fmt.Fprintf(bw, "  w%d_%d -> w%d_%d [constraint=false, color=red];\n",
				cm.Max, li+1, cm.Min, li+1)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// maxDOTExtent bounds the wire and column indices ReadDOT accepts. A
// hostile (or fuzz-mutated) body naming rail node w0_999999999 would
// otherwise make the parser materialize a level per named column —
// gigabytes of allocation (and a gigabyte WriteDOT round trip) from a
// few dozen input bytes. The DOT rendering draws n·(depth+1) rail
// nodes, so it is explicitly a small-network format (see WriteDOT);
// every consumer in-repo (the daemon's submission endpoint, the snet
// CLI) sits far below this cap.
const maxDOTExtent = 1 << 10

// dotCompEdge matches the comparator edges WriteDOT emits:
// "w<max>_<col> -> w<min>_<col> [constraint=false, color=red];".
var dotCompEdge = regexp.MustCompile(`^w(\d+)_(\d+)\s*->\s*w(\d+)_(\d+)\s*\[constraint=false`)

// dotRailNode matches the per-column rail nodes ("w<wire>_<col>")
// inside rank=same groups, which carry the wire count and the depth
// even for networks with empty levels.
var dotRailNode = regexp.MustCompile(`\bw(\d+)_(\d+)\b`)

// ReadDOT parses the Graphviz rendering written by WriteDOT back into a
// network. It understands exactly the subset WriteDOT emits — rail
// nodes w<wire>_<col> grouped per column and comparator edges from the
// max wire to the min wire tagged constraint=false — so
// WriteDOT/ReadDOT round-trips any network, including empty levels.
// Lines may end in "\n", "\r\n", or a lone "\r"; parse errors report
// 1-based line numbers.
func ReadDOT(r io.Reader) (*Network, error) {
	sc := newLineScanner(r)
	lineNo := 0
	maxWire, maxCol := -1, 0
	type dotComp struct {
		min, max, level, line int
	}
	var comps []dotComp
	sawGraph := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//"):
			continue
		case strings.HasPrefix(line, "digraph"):
			sawGraph = true
			continue
		}
		if m := dotCompEdge.FindStringSubmatch(line); m != nil {
			hi, e1 := strconv.Atoi(m[1])
			c1, e2 := strconv.Atoi(m[2])
			lo, e3 := strconv.Atoi(m[3])
			c2, e4 := strconv.Atoi(m[4])
			if e1 != nil || e2 != nil || e3 != nil || e4 != nil ||
				hi >= maxDOTExtent || lo >= maxDOTExtent || c1 >= maxDOTExtent {
				return nil, fmt.Errorf("line %d: comparator edge out of range", lineNo)
			}
			if c1 != c2 || c1 < 1 {
				return nil, fmt.Errorf("line %d: comparator edge spans columns %d and %d", lineNo, c1, c2)
			}
			comps = append(comps, dotComp{min: lo, max: hi, level: c1 - 1, line: lineNo})
			continue
		}
		// Every remaining well-formed line only contributes rail
		// extents: rank groups, rail edges, input labels, the brace
		// lines. Harvest every w<wire>_<col> occurrence.
		for _, m := range dotRailNode.FindAllStringSubmatch(line, -1) {
			w, errW := strconv.Atoi(m[1])
			c, errC := strconv.Atoi(m[2])
			if errW != nil || errC != nil || w >= maxDOTExtent || c >= maxDOTExtent {
				return nil, fmt.Errorf("line %d: rail node w%s_%s out of range", lineNo, m[1], m[2])
			}
			if w > maxWire {
				maxWire = w
			}
			if c > maxCol {
				maxCol = c
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawGraph {
		return nil, fmt.Errorf("no digraph declaration found")
	}
	if maxWire < 0 {
		return nil, fmt.Errorf("no wire rails found")
	}
	n := maxWire + 1
	depth := maxCol // columns run 0..depth
	net := New(n)
	levels := make([]Level, depth)
	for _, cm := range comps {
		if cm.level >= depth {
			return nil, fmt.Errorf("line %d: comparator in column %d beyond the rail columns", cm.line, cm.level+1)
		}
		levels[cm.level] = append(levels[cm.level], Comparator{Min: cm.min, Max: cm.max})
	}
	for _, lv := range levels {
		net.levels = append(net.levels, lv)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// String returns a compact single-line description, e.g.
// "network[n=8 depth=6 size=19]".
func (c *Network) String() string {
	return fmt.Sprintf("network[n=%d depth=%d size=%d]", c.n, c.Depth(), c.Size())
}

// String returns a compact single-line description of the register
// network.
func (r *Register) String() string {
	return fmt.Sprintf("register[n=%d depth=%d size=%d shuffleBased=%v]",
		r.n, r.Depth(), r.Size(), r.IsShuffleBased())
}

// FormatOps renders an ops vector in the paper's notation, e.g. "++0-1".
func FormatOps(ops []Op) string {
	var sb strings.Builder
	for _, op := range ops {
		sb.WriteString(op.String())
	}
	return sb.String()
}

// CanonicalLevel returns a copy of the level with comparators sorted by
// their smaller wire index, for deterministic comparison and printing.
func CanonicalLevel(lv Level) Level {
	out := make(Level, len(lv))
	copy(out, lv)
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i], out[j]
		mi, mj := li.Min, lj.Min
		if li.Max < mi {
			mi = li.Max
		}
		if lj.Max < mj {
			mj = lj.Max
		}
		return mi < mj
	})
	return out
}

// Equal reports whether two networks have identical structure (same
// wires, same levels with comparators in the same order up to
// canonicalization).
func (c *Network) Equal(other *Network) bool {
	if c.n != other.n || len(c.levels) != len(other.levels) {
		return false
	}
	for i := range c.levels {
		a, b := CanonicalLevel(c.levels[i]), CanonicalLevel(other.levels[i])
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}
