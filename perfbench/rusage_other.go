//go:build !unix

package main

import "runtime"

// maxRSSMB falls back to the memory the Go runtime obtained from the
// OS where getrusage(2) does not exist.
func maxRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
