//go:build !race

package alloc

const raceEnabled = false
