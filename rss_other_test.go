//go:build !linux

package blobvfs_test

// peakRSSMB reports nothing where getrusage's peak is not in KiB or absent.
func peakRSSMB() (float64, bool) { return 0, false }
