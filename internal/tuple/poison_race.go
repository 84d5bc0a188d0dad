//go:build race

package tuple

// poisonRecycled makes Release overwrite the block it recycles: on under
// the race detector, where tests are meant to fail loudly.
const poisonRecycled = true
