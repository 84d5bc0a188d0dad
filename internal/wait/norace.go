//go:build !race

package wait

// Race reports whether the race detector is compiled in.
const Race = false

const raceScale = 1
