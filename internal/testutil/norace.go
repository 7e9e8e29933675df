//go:build !race

package testutil

// Race reports whether the binary was built with the race detector (see
// race.go).
const Race = false
