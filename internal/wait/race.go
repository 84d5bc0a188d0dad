//go:build race

package wait

// Race reports whether the race detector is compiled in. Its
// instrumented code cannot sustain the normal real-time tick rates, and
// under it sync.Pool drops items on purpose.
const Race = true

const raceScale = 3
