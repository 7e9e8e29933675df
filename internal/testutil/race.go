//go:build race

package testutil

// Race reports whether the binary was built with the race detector. Under it
// sync.Pool drops a share of its Puts on purpose, so allocation fences that
// rely on pooled scratch must apply their tight ceilings only when Race is
// false.
const Race = true
