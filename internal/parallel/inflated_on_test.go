//go:build race || srbdebug

package parallel_test

// allocsInflated reports whether this build adds allocations of its own to
// every monitor operation: the race detector's instrumentation, or the
// srbdebug build's invariant checks.
const allocsInflated = true
