//go:build !race && !srbdebug

package parallel_test

// allocsInflated reports whether this build adds allocations of its own to
// every monitor operation; the allocation counts are exact only when not.
const allocsInflated = false
