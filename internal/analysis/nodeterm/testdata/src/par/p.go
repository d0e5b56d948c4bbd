// Package par is a nodeterm fixture: the fan-out package reads no clock
// of its own, so a stopwatch reintroduced around a task is flagged while
// the span clock's durations pass.
package par

import "time"

func timeTask(fn func()) time.Duration {
	t0 := time.Now() // want `time\.Now in deterministic kernel package par`
	fn()
	return time.Since(t0) // want `time\.Since in deterministic kernel package par`
}

func longest(durs []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range durs {
		m = max(m, d)
	}
	return m
}
