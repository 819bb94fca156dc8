//go:build race

package knapsack

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop pooled values at random, so allocation counts mean nothing there.
const raceEnabled = true
