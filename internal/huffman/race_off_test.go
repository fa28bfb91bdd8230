//go:build !race

package huffman

// raceEnabled reports that the race detector is active.
const raceEnabled = false
