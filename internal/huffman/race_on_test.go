//go:build race

package huffman

// raceEnabled reports that the race detector is active; allocation pins
// are skipped because instrumentation inflates every measurement.
const raceEnabled = true
