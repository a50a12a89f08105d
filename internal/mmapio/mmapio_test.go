package mmapio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCreateWriteReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	m, err := Create(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 4096 {
		t.Fatalf("size = %d, want 4096", m.Size())
	}
	b := m.Bytes()
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("fresh mapping not zero at %d", i)
		}
	}
	copy(b[100:], []byte("hello spill"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Bytes()[100:111]; !bytes.Equal(got, []byte("hello spill")) {
		t.Fatalf("reopened contents = %q", got)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xff}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, v := range m.Bytes() {
		if v != 0 {
			t.Fatalf("Create did not zero existing file at %d", i)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "m"), 0); err == nil {
		t.Fatal("Create(size=0) should fail")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Open(missing) should fail")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil {
		t.Fatal("Open(empty) should fail")
	}
}

func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	m, err := Create(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilFile *File
	if err := nilFile.Sync(); err != nil {
		t.Fatalf("nil Sync: %v", err)
	}
	if err := nilFile.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestAnon(t *testing.T) {
	if _, err := Anon(0); err == nil {
		t.Fatal("Anon(0) should fail")
	}
	const size = 3 << 20
	b, err := Anon(size)
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("no anonymous mappings on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != size {
		t.Fatalf("len = %d, want %d", len(b), size)
	}
	// First, a middle and the last page: zero on first touch, writable.
	for _, i := range []int{0, size / 2, size - 1} {
		if b[i] != 0 {
			t.Fatalf("fresh mapping not zero at %d", i)
		}
		b[i] = 0xa5
	}
	if err := FreeAnon(b); err != nil {
		t.Fatal(err)
	}
}
