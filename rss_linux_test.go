package blobvfs_test

import "syscall"

// peakRSSMB is the process's peak resident set so far, in MB. The peak
// never falls, so a benchmark run after a larger one in the same
// process repeats the larger one's.
func peakRSSMB() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return float64(ru.Maxrss) * 1024 / 1e6, true // Linux reports KiB
}
