package core

import (
	"encoding/json"
	"fmt"
	"io"

	"shufflenet/internal/pattern"
)

// certJSON is the serialized form of a Certificate. The pattern is
// stored as a compact symbol string ("S"/"M"/"L" per wire; certificates
// only ever carry those three symbols).
type certJSON struct {
	Pattern string `json:"pattern"`
	D       []int  `json:"d"`
	W0      int    `json:"w0"`
	W1      int    `json:"w1"`
	M       int    `json:"m"`
	Pi      []int  `json:"pi"`
	PiPrime []int  `json:"piPrime"`
}

// MarshalJSON encodes the certificate compactly, in the format
// WriteJSON indents.
func (c *Certificate) MarshalJSON() ([]byte, error) {
	syms := make([]byte, len(c.P))
	for i, s := range c.P {
		switch s {
		case pattern.S(0):
			syms[i] = 'S'
		case pattern.M(0):
			syms[i] = 'M'
		case pattern.L(0):
			syms[i] = 'L'
		default:
			return nil, fmt.Errorf("core: certificate pattern contains %v; cannot serialize", s)
		}
	}
	return json.Marshal(certJSON{
		Pattern: string(syms), D: c.D, W0: c.W0, W1: c.W1, M: c.M,
		Pi: c.Pi, PiPrime: c.PiPrime,
	})
}

// WriteJSON serializes the certificate, indented and newline-terminated.
// The format is stable and self-contained: a certificate written by one
// run can be verified against the network by another (see
// cmd/adversary -save/-check).
func (c *Certificate) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCertificateJSON parses a certificate written by WriteJSON and
// validates its internal consistency (Verify still must be called
// against the network to establish the non-sortability claim).
func ReadCertificateJSON(r io.Reader) (*Certificate, error) {
	var cj certJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return nil, fmt.Errorf("core: parsing certificate: %w", err)
	}
	n := len(cj.Pattern)
	if n == 0 || len(cj.Pi) != n || len(cj.PiPrime) != n {
		return nil, fmt.Errorf("core: certificate widths inconsistent (%d/%d/%d)",
			n, len(cj.Pi), len(cj.PiPrime))
	}
	p := make(pattern.Pattern, n)
	for i, ch := range cj.Pattern {
		switch ch {
		case 'S':
			p[i] = pattern.S(0)
		case 'M':
			p[i] = pattern.M(0)
		case 'L':
			p[i] = pattern.L(0)
		default:
			return nil, fmt.Errorf("core: bad pattern symbol %q", ch)
		}
	}
	for _, w := range append([]int{cj.W0, cj.W1}, cj.D...) {
		if w < 0 || w >= n {
			return nil, fmt.Errorf("core: wire %d out of range", w)
		}
	}
	return &Certificate{
		P: p, D: cj.D, W0: cj.W0, W1: cj.W1, M: cj.M,
		Pi: cj.Pi, PiPrime: cj.PiPrime,
	}, nil
}
