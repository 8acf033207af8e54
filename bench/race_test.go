//go:build race

package main

// The race detector runs its own code on stacks the profiler cannot unwind,
// so most CPU samples carry no netmem frame at all.
func init() { raceEnabled = true }
