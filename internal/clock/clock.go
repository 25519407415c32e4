// Package clock is the engine's deterministic time abstraction: core
// packages never call time.Now directly — they read an injected Clock, so
// tests of time-dependent machinery (the sparse time→LSN index, retention
// pruning, replication lag) control time explicitly instead of sleeping.
//
// Production entry points install Real(); tests and experiments install a
// Mock (vclock.New is one started at the paper's example timestamp).
package clock

import "time"

// Clock supplies wall-clock time.
type Clock interface {
	Now() time.Time
}

// realClock reads the system clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Real returns the system clock. The only place core packages touch
// time.Now for wall-clock readings.
func Real() Clock { return realClock{} }

// Func adapts a plain func() time.Time (e.g. a legacy Options.Now field or
// a Mock's Now method value) into a Clock.
type Func func() time.Time

// Now implements Clock.
func (f Func) Now() time.Time { return f() }
