//go:build !linux

package main

// peakRSS notes nothing where getrusage's peak is not in KiB or absent.
func peakRSS() string { return "" }
