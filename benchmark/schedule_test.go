package main

import "testing"

func TestScheduleDueTimes(t *testing.T) {
	s := newSchedule(1_000, 100_000)
	if s.period != 10_000 {
		t.Fatalf("period %d ns at 100k/s", s.period)
	}
	if s.due(0) != 1_000 || s.due(3) != 31_000 {
		t.Errorf("due(0), due(3) = %d, %d", s.due(0), s.due(3))
	}
	for _, tc := range []struct {
		now  int64
		want int
	}{
		{0, 0}, {999, 0}, {1_000, 1}, {10_999, 1}, {11_000, 2}, {1_001_000, 101},
	} {
		if got := s.dueBy(tc.now); got != tc.want {
			t.Errorf("dueBy(%d) = %d, want %d", tc.now, got, tc.want)
		}
	}
	// Every event is due exactly when dueBy first counts it.
	for i := 0; i < 1000; i++ {
		if s.dueBy(s.due(i)) != i+1 || s.dueBy(s.due(i)-1) != i {
			t.Fatalf("event %d: due %d not the boundary of dueBy", i, s.due(i))
		}
	}
}
