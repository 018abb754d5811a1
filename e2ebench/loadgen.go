package main

import "time"

// maxSelfLate is how far behind its own schedule the load generator may fall
// before a run is invalid. Lateness caused by a request that blocked on the
// daemon is the daemon's and only shows in the latencies; lateness with no
// request in flight is the generator's.
const maxSelfLate = 50 * time.Millisecond

// lateness accounts for how late an open-loop generator with one issuing
// goroutine sent its requests. Every request is timed from when it was due,
// so lateness never hides in the latencies; this only decides whether the
// generator kept its schedule.
type lateness struct {
	busyEnd time.Time // when the generator's last request returned
	n       int
	max     time.Duration // largest send − due
	selfMax time.Duration // largest part of that with no request in flight
}

// returned records that a request the generator was blocked on returned.
func (l *lateness) returned(at time.Time) {
	if at.After(l.busyEnd) {
		l.busyEnd = at
	}
}

// sent records a request due at due and sent at sent.
func (l *lateness) sent(due, sent time.Time) {
	l.n++
	l.max = max(l.max, sent.Sub(due))
	from := due
	if l.busyEnd.After(from) {
		from = l.busyEnd
	}
	l.selfMax = max(l.selfMax, sent.Sub(from))
}

// fellBehind reports whether the generator itself missed its schedule.
func (l *lateness) fellBehind() bool { return l.selfMax > maxSelfLate }
