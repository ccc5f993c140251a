package main

import (
	"testing"
	"time"
)

// TestCheckSlowOp pins that a slow-op threshold is refused unless the
// monitor is instrumented, since slow ops are only timed there.
func TestCheckSlowOp(t *testing.T) {
	for _, tc := range []struct {
		threshold    time.Duration
		instrumented bool
		wantErr      bool
	}{
		{0, false, false},
		{0, true, false},
		{10 * time.Millisecond, true, false},
		{10 * time.Millisecond, false, true},
	} {
		err := checkSlowOp(tc.threshold, tc.instrumented)
		if (err != nil) != tc.wantErr {
			t.Errorf("checkSlowOp(%s, %v) = %v, want error %v", tc.threshold, tc.instrumented, err, tc.wantErr)
		}
	}
}
