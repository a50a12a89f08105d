//go:build !linux && !darwin

package mmapio

import (
	"errors"
	"os"
)

// Fallback for platforms without syscall.Mmap (windows, js/wasm, and
// unixes we have not wired): the file is read into an ordinary buffer
// and written back on Sync/Close. Semantics match the mapped path for
// orderly shutdowns; kill-durability (dirty pages surviving SIGKILL)
// is a unix-mapping property and is documented as such by callers.
func mapFile(f *os.File, size int64) (*File, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, data: data}, nil
}

func (m *File) sync() error {
	if len(m.data) == 0 {
		return nil
	}
	if _, err := m.f.WriteAt(m.data, 0); err != nil {
		return err
	}
	return m.f.Sync()
}

func (m *File) unmap() error { return nil }

func mapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapAnon([]byte) error { return errors.ErrUnsupported }
