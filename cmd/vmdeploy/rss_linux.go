package main

import (
	"fmt"
	"syscall"
)

// peakRSS is the completion line's note of the process's peak resident
// set so far. The peak never falls, so a scenario run after a larger
// one repeats the larger one's.
func peakRSS() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ""
	}
	return fmt.Sprintf(", peak RSS %.0f MB", float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
}
