package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

func TestCertificateJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 64
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(6))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(6))
	an, _ := Theorem41Ctx(context.Background(), it, 0)
	cert, err := an.Certificate()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cert.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCertificateJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized certificate must still verify.
	circ, _ := it.ToNetwork()
	if err := back.Verify(circ); err != nil {
		t.Fatalf("round-tripped certificate rejected: %v", err)
	}
	if back.W0 != cert.W0 || back.W1 != cert.W1 || back.M != cert.M {
		t.Fatal("round trip changed fields")
	}
	if !back.P.Equal(cert.P) {
		t.Fatal("round trip changed the pattern")
	}
}

func TestReadCertificateJSONErrors(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`{"pattern":"","d":[],"pi":[],"piPrime":[]}`,
		`{"pattern":"SML","d":[0],"w0":0,"w1":1,"m":0,"pi":[0,1],"piPrime":[0,1,2]}`,
		`{"pattern":"SXL","d":[0],"w0":0,"w1":1,"m":0,"pi":[0,1,2],"piPrime":[0,1,2]}`,
		`{"pattern":"SML","d":[9],"w0":0,"w1":1,"m":0,"pi":[0,1,2],"piPrime":[0,1,2]}`,
	}
	for _, src := range bad {
		if _, err := ReadCertificateJSON(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestCertificateMarshalJSON: MarshalJSON is WriteJSON's format,
// compact, and both forms read back to a certificate that verifies.
func TestCertificateMarshalJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const n = 16
	it := delta.NewIterated(n)
	it.AddBlock(perm.Random(n, rng), delta.Random(4, 1, rng))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(4))
	an, _ := Theorem41Ctx(context.Background(), it, 2)
	cert, err := an.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := cert.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var indented, want bytes.Buffer
	if err := cert.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, want.Bytes()) {
		t.Fatalf("MarshalJSON is not WriteJSON compacted:\n%s\n%s", compact, want.Bytes())
	}
	circ, _ := it.ToNetwork()
	for _, raw := range [][]byte{compact, indented.Bytes()} {
		back, err := ReadCertificateJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Verify(circ); err != nil {
			t.Fatalf("read-back certificate rejected: %v", err)
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, compact) {
			t.Fatalf("round trip changed the certificate:\n%s\n%s", compact, again)
		}
	}
}
