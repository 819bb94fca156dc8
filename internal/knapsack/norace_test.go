//go:build !race

package knapsack

const raceEnabled = false
