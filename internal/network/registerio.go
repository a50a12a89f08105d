package network

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"shufflenet/internal/perm"
)

// WriteText serializes the register network in a line-oriented format:
//
//	registers <n>
//	step <ops> [pi <p0> <p1> ...]
//
// <ops> is the paper's {0,+,-,1} vector ("0+-1..."), or "." for an
// all-0 vector. The permutation is omitted for identity steps and
// written as the named forms "shuffle" / "unshuffle" when it matches
// those, else in one-line notation.
func (r *Register) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "registers %d\n", r.n)
	var sh, unsh perm.Perm
	for _, st := range r.steps {
		ops := "."
		if st.Ops != nil {
			allNone := true
			for _, op := range st.Ops {
				if op != OpNone {
					allNone = false
					break
				}
			}
			if !allNone {
				ops = FormatOps(st.Ops)
			}
		}
		bw.WriteString("step ")
		bw.WriteString(ops)
		if st.Pi != nil && !st.Pi.IsIdentity() {
			if sh == nil && r.n&(r.n-1) == 0 {
				sh, unsh = perm.Shuffle(r.n), perm.Unshuffle(r.n)
			}
			switch {
			case sh != nil && st.Pi.Equal(sh):
				bw.WriteString(" pi shuffle")
			case unsh != nil && st.Pi.Equal(unsh):
				bw.WriteString(" pi unshuffle")
			default:
				bw.WriteString(" pi")
				for _, v := range st.Pi {
					fmt.Fprintf(bw, " %d", v)
				}
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadRegisterText parses the format written by Register.WriteText.
// Lines may end in "\n", "\r\n", or a lone "\r", and may carry trailing
// whitespace; parse errors report 1-based line numbers. Every "pi
// shuffle" step shares one permutation, as does every "pi unshuffle"
// step, so a named step costs no allocation per register.
func ReadRegisterText(rd io.Reader) (*Register, error) {
	sc := newLineScanner(rd)
	var reg *Register
	var sh, unsh perm.Perm
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "registers":
			if reg != nil {
				return nil, fmt.Errorf("line %d: duplicate registers declaration", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want \"registers <n>\"", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 2 || n%2 != 0 {
				return nil, fmt.Errorf("line %d: bad register count %q", lineNo, fields[1])
			}
			reg = NewRegister(n)
		case "step":
			if reg == nil {
				return nil, fmt.Errorf("line %d: step before registers declaration", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: step needs an ops vector", lineNo)
			}
			var st Step
			if fields[1] != "." {
				ops, err := parseOps(fields[1], reg.n/2)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				st.Ops = ops
			}
			rest := fields[2:]
			if len(rest) > 0 {
				if rest[0] != "pi" {
					return nil, fmt.Errorf("line %d: unexpected token %q", lineNo, rest[0])
				}
				pow2 := reg.n&(reg.n-1) == 0
				switch {
				case len(rest) == 2 && rest[1] == "shuffle":
					if !pow2 {
						return nil, fmt.Errorf("line %d: shuffle needs a power-of-two register count", lineNo)
					}
					if sh == nil {
						sh = perm.Shuffle(reg.n)
					}
					st.Pi = sh
				case len(rest) == 2 && rest[1] == "unshuffle":
					if !pow2 {
						return nil, fmt.Errorf("line %d: unshuffle needs a power-of-two register count", lineNo)
					}
					if unsh == nil {
						unsh = perm.Unshuffle(reg.n)
					}
					st.Pi = unsh
				default:
					if len(rest)-1 != reg.n {
						return nil, fmt.Errorf("line %d: permutation has %d entries, want %d", lineNo, len(rest)-1, reg.n)
					}
					p := make(perm.Perm, reg.n)
					for i, f := range rest[1:] {
						v, err := strconv.Atoi(f)
						if err != nil {
							return nil, fmt.Errorf("line %d: bad permutation entry %q", lineNo, f)
						}
						p[i] = v
					}
					if !p.Valid() {
						return nil, fmt.Errorf("line %d: not a permutation", lineNo)
					}
					st.Pi = p
				}
			}
			// st's Pi and Ops are freshly parsed and checked, or a shared
			// named permutation no Register method modifies, so AddStep's
			// check and copy are not needed.
			reg.steps = append(reg.steps, st)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("no registers declaration found")
	}
	return reg, nil
}

func parseOps(s string, want int) ([]Op, error) {
	if len(s) != want {
		return nil, fmt.Errorf("ops vector has %d entries, want %d", len(s), want)
	}
	ops := make([]Op, want)
	for i, ch := range s {
		switch ch {
		case '0':
			ops[i] = OpNone
		case '+':
			ops[i] = OpPlus
		case '-':
			ops[i] = OpMinus
		case '1':
			ops[i] = OpSwap
		default:
			return nil, fmt.Errorf("bad op %q", ch)
		}
	}
	return ops, nil
}
