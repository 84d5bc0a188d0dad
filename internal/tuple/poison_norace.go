//go:build !race

package tuple

const poisonRecycled = false
