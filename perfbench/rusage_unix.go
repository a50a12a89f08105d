//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// maxRSSMB is the process's peak resident set size in MiB, from
// getrusage(2): ru_maxrss is KiB on Linux and bytes on Darwin.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024
	}
	return kb / 1024
}
