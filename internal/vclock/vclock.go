// Package vclock provides a controllable virtual wall clock. Experiments
// install it as the engine's time source so that "as of N minutes ago" is
// deterministic and a 50-minute benchmark history (the paper's §6 runs)
// can be generated in seconds of real time.
package vclock

import (
	"time"

	"repro/internal/clock"
)

// Clock is clock.Mock, the one virtual clock implementation: Now is frozen
// until Advance moves it.
type Clock = clock.Mock

// New returns a clock starting at the given time. A zero start defaults to
// the paper's own example timestamp (2012-03-22 17:00 UTC).
func New(start time.Time) *Clock {
	if start.IsZero() {
		start = time.Date(2012, 3, 22, 17, 0, 0, 0, time.UTC)
	}
	return clock.NewMock(start)
}
