package network

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText: the parser must never panic, and anything it accepts
// must be a valid network that survives a write/read round trip.
func FuzzReadText(f *testing.F) {
	f.Add("wires 4\nlevel 0:1 2:3\nlevel 1:2\n")
	f.Add("wires 2\nlevel\n")
	f.Add("# comment\nwires 8\nlevel 0:7\n")
	f.Add("wires 1\n")
	f.Add("wires 4\nlevel 3:0\n")
	f.Add("wires 4\r\nlevel 0:1 2:3\r\nlevel 1:2\r\n") // CRLF (HTTP clients)
	f.Add("wires 4\rlevel 0:1\r")                      // lone CR
	f.Add("wires 4 \nlevel 0:1 2:3\t\n")               // trailing whitespace
	f.Add("wires 4\r\n\r\nlevel 0:1\r\n")              // blank CRLF lines
	f.Add("wires 100000000000000000\nlevel 0:1\n")     // any width, linear in the level
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ReadText(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid network: %v", err)
		}
		var buf bytes.Buffer
		if err := c.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if !c.Equal(back) {
			t.Fatal("round trip changed the network")
		}
	})
}

// maxProbeRegisters is the widest register machine FuzzReadRegisterText
// evaluates: 2^16, the widest circuit the daemon accepts.
const maxProbeRegisters = 1 << 16

// FuzzReadRegisterText: same contract for the register-model parser.
// testdata/fuzz/FuzzReadRegisterText holds a 10^17-register header,
// which the parser accepts.
func FuzzReadRegisterText(f *testing.F) {
	f.Add("registers 4\nstep ++ pi shuffle\nstep .\n")
	f.Add("registers 2\nstep 1\n")
	f.Add("registers 4\nstep 0- pi 3 2 1 0\n")
	f.Add("registers 4\r\nstep ++ pi shuffle\r\nstep .\r\n") // CRLF
	f.Add("registers 4\rstep ++\r")                          // lone CR
	f.Add("registers 4  \nstep ++ pi 3 2 1 0 \n")            // trailing whitespace
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ReadRegisterText(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRegisterText(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if back.Registers() != r.Registers() || back.Depth() != r.Depth() || back.Size() != r.Size() {
			t.Fatal("round trip changed the network shape")
		}
		// Behavioral agreement on one probe, up to the daemon's width
		// cap: the header alone declares the count, and a probe of
		// 10^17 registers cannot be allocated.
		n := r.Registers()
		if n > maxProbeRegisters {
			return
		}
		in := make([]int, n)
		for i := range in {
			in[i] = i
		}
		a, b := r.Eval(in), back.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("round trip changed behaviour")
			}
		}
	})
}

// FuzzReadDOT: the DOT parser must never panic, and anything it
// accepts must be a valid network that survives a DOT write/read round
// trip.
func FuzzReadDOT(f *testing.F) {
	seed := func(c *Network) {
		var buf bytes.Buffer
		if err := c.WriteDOT(&buf, "seed"); err == nil {
			f.Add(buf.String())
		}
	}
	seed(New(4).AddComparators(0, 1, 2, 3).AddComparators(1, 2))
	seed(New(2))
	seed(New(8).AddLevel(nil).AddComparators(7, 0))
	f.Add("digraph \"x\" {\r\n w0_0; w1_0; w0_1; w1_1;\r\n w1_1 -> w0_1 [constraint=false];\r\n}\r\n")
	f.Add("digraph \"x\" {\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ReadDOT(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid network: %v", err)
		}
		var buf bytes.Buffer
		if err := c.WriteDOT(&buf, "rt"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDOT(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if !c.Equal(back) {
			t.Fatal("round trip changed the network")
		}
	})
}

// FuzzCompileEval: Compile must round-trip evaluation — for any network
// decoded from the fuzz bytes and any 0-1 input mask, Network.Eval,
// Program.Eval, Program.EvalInto, and lane 0 of Program.EvalBits must
// all agree.
func FuzzCompileEval(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3}, uint64(5))
	f.Add(uint8(8), []byte{7, 0, 1, 6, 2, 5}, uint64(0xA5))
	f.Add(uint8(2), []byte{}, uint64(1))
	f.Fuzz(func(t *testing.T, width uint8, pairs []byte, mask uint64) {
		n := 2 + int(width)%31 // 2..32
		c := New(n)
		// Decode pairs into levels, skipping bytes that would reuse a
		// wire within the level; a zero byte starts a new level.
		var lv Level
		used := make(map[int]bool)
		flush := func() {
			c.AddLevel(lv)
			lv, used = nil, make(map[int]bool)
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i])%n, int(pairs[i+1])%n
			if a == b || used[a] || used[b] {
				flush()
			}
			if a != b {
				lv = append(lv, Comparator{Min: a, Max: b})
				used[a], used[b] = true, true
			}
		}
		flush()
		p := c.Compile()
		in := make([]int, n)
		state := make([]uint64, n)
		for w := 0; w < n; w++ {
			in[w] = int(mask >> uint(w) & 1)
			state[w] = mask >> uint(w) & 1 // lane 0 only
		}
		want := c.Eval(in)
		got := p.Eval(in)
		into := make([]int, n)
		p.EvalInto(into, in)
		p.EvalBits(state)
		for w := 0; w < n; w++ {
			if got[w] != want[w] {
				t.Fatalf("wire %d: Program.Eval %d != Network.Eval %d", w, got[w], want[w])
			}
			if into[w] != want[w] {
				t.Fatalf("wire %d: EvalInto %d != Network.Eval %d", w, into[w], want[w])
			}
			if bit := int(state[w] & 1); bit != want[w] {
				t.Fatalf("wire %d: EvalBits lane 0 bit %d != Network.Eval %d", w, bit, want[w])
			}
		}
	})
}
