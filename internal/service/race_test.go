//go:build race

package service

// The race detector makes sync.Pool drop items at random, so allocation
// counts of code that pools buffers (encoding/json does) are not
// deterministic under it.
func init() { raceEnabled = true }
