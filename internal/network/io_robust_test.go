package network

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReadTextLineEndings: the text parser must accept the line-ending
// styles real HTTP clients produce — LF, CRLF, lone CR, trailing
// spaces/tabs, and a missing final newline — and parse them all to the
// same network.
func TestReadTextLineEndings(t *testing.T) {
	want, err := ReadText(strings.NewReader("wires 4\nlevel 0:1 2:3\nlevel 1:2\n"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"crlf":             "wires 4\r\nlevel 0:1 2:3\r\nlevel 1:2\r\n",
		"lone-cr":          "wires 4\rlevel 0:1 2:3\rlevel 1:2\r",
		"mixed":            "wires 4\r\nlevel 0:1 2:3\nlevel 1:2\r",
		"trailing-ws":      "wires 4  \nlevel 0:1 2:3\t \nlevel 1:2   \n",
		"no-final-newline": "wires 4\nlevel 0:1 2:3\nlevel 1:2",
		"blank-crlf-lines": "wires 4\r\n\r\nlevel 0:1 2:3\r\n\r\nlevel 1:2\r\n",
	}
	for name, src := range cases {
		got, err := ReadText(strings.NewReader(src))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%s: parsed %v, want %v", name, got, want)
		}
	}
}

// TestReadRegisterTextLineEndings: same contract for the register-model
// parser.
func TestReadRegisterTextLineEndings(t *testing.T) {
	want, err := ReadRegisterText(strings.NewReader("registers 4\nstep ++ pi shuffle\nstep .\n"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"crlf":        "registers 4\r\nstep ++ pi shuffle\r\nstep .\r\n",
		"lone-cr":     "registers 4\rstep ++ pi shuffle\rstep .\r",
		"trailing-ws": "registers 4 \nstep ++ pi shuffle\t\nstep . \n",
	}
	for name, src := range cases {
		got, err := ReadRegisterText(strings.NewReader(src))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got.Registers() != want.Registers() || got.Depth() != want.Depth() || got.Size() != want.Size() {
			t.Errorf("%s: parsed %v, want %v", name, got, want)
		}
	}
}

// TestReadTextErrorLineNumbers: parse errors must point at the actual
// 1-based source line for every line-ending style — the lone-CR style
// used to collapse the whole body into "line 1".
func TestReadTextErrorLineNumbers(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"lf", "wires 4\nlevel 0:1\nlevel 9:1\n", "line 3"},
		{"crlf", "wires 4\r\nlevel 0:1\r\nlevel 9:1\r\n", "line 3"},
		{"lone-cr", "wires 4\rlevel 0:1\rlevel 9:1\r", "line 3"},
		{"bad-directive-crlf", "wires 4\r\nbogus\r\n", "line 2"},
		{"reg-crlf", "registers 4\r\nstep ++\r\nstep xx\r\n", "line 3"},
	}
	for _, tc := range cases {
		var err error
		if strings.HasPrefix(tc.src, "registers") {
			_, err = ReadRegisterText(strings.NewReader(tc.src))
		} else {
			_, err = ReadText(strings.NewReader(tc.src))
		}
		if err == nil {
			t.Errorf("%s: want an error mentioning %q, got nil", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReadDOTRoundTrip: WriteDOT then ReadDOT must reproduce the
// network exactly, including empty levels and min>max ("reversed")
// comparators.
func TestReadDOTRoundTrip(t *testing.T) {
	nets := []*Network{
		New(4).AddComparators(0, 1, 2, 3).AddComparators(1, 2),
		New(2),
		New(8).AddLevel(nil).AddComparators(7, 0), // empty level, reversed comparator
		New(1),
	}
	for i, c := range nets {
		var buf bytes.Buffer
		if err := c.WriteDOT(&buf, "t"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDOT(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		if back.Wires() != c.Wires() || back.Depth() != c.Depth() || back.Size() != c.Size() {
			t.Fatalf("net %d: round trip %v, want %v", i, back, c)
		}
		if !back.Equal(c) {
			t.Fatalf("net %d: round trip changed the network", i)
		}
	}
	// CRLF DOT bodies parse too.
	var buf bytes.Buffer
	if err := nets[0].WriteDOT(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	back, err := ReadDOT(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("crlf dot: %v", err)
	}
	if !back.Equal(nets[0]) {
		t.Fatal("crlf dot round trip changed the network")
	}
}

// TestReadDOTRejects: malformed DOT inputs fail cleanly.
func TestReadDOTRejects(t *testing.T) {
	for name, src := range map[string]string{
		"empty":       "",
		"no-graph":    "w0_1 -> w1_1 [constraint=false];\n",
		"no-rails":    "digraph \"x\" {\n}\n",
		"col-span":    "digraph \"x\" {\n w0_0; w1_1;\n w1_1 -> w0_2 [constraint=false];\n}\n",
		"col-zero":    "digraph \"x\" {\n w0_1; w1_1;\n w1_0 -> w0_0 [constraint=false];\n}\n",
		"dup-in-lvl":  "digraph \"x\" {\n w0_1; w1_1;\n w1_1 -> w0_1 [constraint=false];\n w0_1 -> w1_1 [constraint=false];\n}\n",
		"self-compar": "digraph \"x\" {\n w0_1; w1_1;\n w0_1 -> w0_1 [constraint=false];\n}\n",
	} {
		if _, err := ReadDOT(strings.NewReader(src)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// TestReadTextLongLine: the line scanner starts small and grows to the
// longest line, so a level line past 1 MiB (one level of 2^18 wires)
// still parses.
func TestReadTextLongLine(t *testing.T) {
	const n = 1 << 18
	pairs := make([]int, n)
	for i := range pairs {
		pairs[i] = i
	}
	want := New(n).AddComparators(pairs...)
	var buf bytes.Buffer
	if err := want.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if line := strings.SplitN(buf.String(), "\n", 3)[1]; len(line) <= 1<<20 {
		t.Fatalf("level line is %d bytes, want more than 1 MiB", len(line))
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("long level line did not round-trip")
	}
}

// endlessLine reads as head followed by body repeated forever: a line
// that never ends.
type endlessLine struct {
	head, body string
	n          int // bytes read so far
}

func (r *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		if r.n < len(r.head) {
			p[i] = r.head[r.n]
		} else {
			p[i] = r.body[(r.n-len(r.head))%len(r.body)]
		}
		r.n++
	}
	return len(p), nil
}

// TestReadLineTooLong: a line past the 16 MiB cap fails every parser
// with bufio.ErrTooLong, having read about the cap and no further.
func TestReadLineTooLong(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 16 MiB per parser")
	}
	for _, tc := range []struct {
		name  string
		head  string
		body  string
		parse func(io.Reader) error
	}{
		{"text", "wires 4\nlevel", " 0:1", func(r io.Reader) error { _, err := ReadText(r); return err }},
		{"register", "registers 4\nstep", " ++", func(r io.Reader) error { _, err := ReadRegisterText(r); return err }},
		{"dot", "digraph \"x\" {\n  { rank=same;", " w0_0;", func(r io.Reader) error { _, err := ReadDOT(r); return err }},
	} {
		r := &endlessLine{head: tc.head, body: tc.body}
		if err := tc.parse(r); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: got %v, want bufio.ErrTooLong", tc.name, err)
		}
		if r.n > 2*maxLineBytes {
			t.Errorf("%s: read %d bytes for a %d-byte cap", tc.name, r.n, maxLineBytes)
		}
	}
}
