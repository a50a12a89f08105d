package core

import (
	"bytes"
	"context"
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
