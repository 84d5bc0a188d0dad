//go:build !race

package ckpt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
