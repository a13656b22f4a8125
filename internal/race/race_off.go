//go:build !race

// Package race reports whether the race detector is compiled in. Allocation
// guards skip under it because instrumentation skews MemStats.
package race

// Enabled is true when the binary was built with -race.
const Enabled = false
