//go:build linux || darwin

package mmapio

import (
	"os"
	"syscall"
	"unsafe"
)

// mapFile maps fd's first size bytes MAP_SHARED: stores land in the
// page cache immediately, so even a SIGKILLed process leaves its
// writes behind for the next open (modulo torn pages at crash time —
// the caller's format must tolerate those; see core's memo verifier).
//
// The mapping is advised MADV_RANDOM: its one user probes a hash
// table, one bucket per access, so readahead would only fault in
// neighbouring pages nobody asked for — on a fresh, sparse table, page
// after page of zeros.
func mapFile(f *os.File, size int64) (*File, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, err
	}
	// A hint: should it fail, the mapping works as it is. Raw syscall,
	// because syscall.Madvise exists only on linux.
	syscall.Syscall(syscall.SYS_MADVISE,
		uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), uintptr(syscall.MADV_RANDOM))
	return &File{f: f, data: data}, nil
}

func (m *File) sync() error {
	if len(m.data) == 0 {
		return nil
	}
	// msync(MS_SYNC): the slice's base pointer is stable for the
	// duration of the call (Go slices do not move).
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&m.data[0])), uintptr(len(m.data)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}

func (m *File) unmap() error {
	if m.data == nil {
		return nil
	}
	return syscall.Munmap(m.data)
}

func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

func unmapAnon(b []byte) error { return syscall.Munmap(b) }
