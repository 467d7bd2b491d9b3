package main

// schedule is an open-loop arrival plan on the clock() timeline: the i-th
// event (0-based) of a phase is due at start + i·period, whatever the
// system under test does meanwhile.
type schedule struct {
	start, period int64
}

// newSchedule plans rate events per second from start (a clock reading).
func newSchedule(start int64, rate int) schedule {
	return schedule{start: start, period: int64(1e9) / int64(rate)}
}

// due is the clock reading at which the i-th event is due.
func (s schedule) due(i int) int64 { return s.start + int64(i)*s.period }

// dueBy is how many events are due at or before clock reading now.
func (s schedule) dueBy(now int64) int {
	if now < s.start {
		return 0
	}
	return int((now-s.start)/s.period) + 1
}
