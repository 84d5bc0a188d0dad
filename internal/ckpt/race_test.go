//go:build race

package ckpt

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops items on purpose, so allocation pins that depend
// on pool reuse cannot hold.
const raceEnabled = true
