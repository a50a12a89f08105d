// Package mmapio memory-maps files for the repo's disk-resident data
// structures — today the optimum search's spillable transposition table
// (core.OpenSpillMemo). The package is deliberately tiny: create or
// open a file of a fixed size, expose its contents as one writable
// byte slice, sync on demand, unmap on close. Anon hands out
// file-less memory the same way, for large tables that should cost
// only the pages they touch (core.NewMemo).
//
// On unix the slice is a real shared mapping (MAP_SHARED), so stores
// are visible to a later run of the same file even after a SIGKILL —
// the kernel owns the dirty pages, not the process. Platforms without
// syscall.Mmap (windows, js/wasm) get a read-into-memory fallback
// whose writes reach the file only on Sync/Close; callers that promise
// kill-durability should document that it is unix-only. Anon fails
// there, and its callers fall back to the Go heap.
package mmapio

import (
	"fmt"
	"os"
)

// Anon returns size bytes of private, zero-filled memory outside the
// Go heap. On unix it is an anonymous mapping: the call is one
// syscall, and the kernel zero-fills each page the first time it is
// touched, so the resident size grows only with the pages written.
// The garbage collector neither scans nor frees it — it must hold no
// Go pointers, and it stays mapped until FreeAnon, which must get
// the slice Anon returned. Elsewhere Anon returns
// errors.ErrUnsupported.
func Anon(size int) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmapio: size must be positive (got %d)", size)
	}
	return mapAnon(size)
}

// FreeAnon unmaps memory obtained from Anon. The slice must not be
// used afterwards.
func FreeAnon(b []byte) error { return unmapAnon(b) }

// File is a fixed-size file exposed as a byte slice.
type File struct {
	f    *os.File
	data []byte
}

// Create creates (or truncates) path at exactly size bytes, zero
// filled, and maps it writable.
func Create(path string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmapio: size must be positive (got %d)", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	return mapFile(f, size)
}

// Open maps an existing file writable, at its current size.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() <= 0 {
		f.Close()
		return nil, fmt.Errorf("mmapio: %s is empty", path)
	}
	return mapFile(f, st.Size())
}

// Bytes is the mapped contents. The slice is valid until Close; writes
// to it mutate the file (immediately on unix, on Sync elsewhere).
func (m *File) Bytes() []byte { return m.data }

// Size is the mapped length in bytes.
func (m *File) Size() int64 { return int64(len(m.data)) }

// Sync flushes outstanding writes to the file.
func (m *File) Sync() error {
	if m == nil {
		return nil
	}
	return m.sync()
}

// Close syncs, unmaps, and closes. The Bytes slice must not be used
// afterwards. Nil-safe and idempotent.
func (m *File) Close() error {
	if m == nil || m.f == nil {
		return nil
	}
	syncErr := m.sync()
	unmapErr := m.unmap()
	closeErr := m.f.Close()
	m.f, m.data = nil, nil
	if syncErr != nil {
		return syncErr
	}
	if unmapErr != nil {
		return unmapErr
	}
	return closeErr
}
