package server

import (
	"net/http/httptest"
	"testing"

	"bioperf5/internal/sched"
)

// header drives retryAfter directly and returns the hint it sets.
func retryAfterHeader(s *Server) string {
	w := httptest.NewRecorder()
	s.retryAfter(w)
	return w.Header().Get("Retry-After")
}

func TestRetryAfterDerivedFromLoad(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1},
		Options{MaxInflight: 4})

	// Idle server, no latency history: the 1s floor.
	if got := retryAfterHeader(s); got != "1" {
		t.Errorf("idle hint = %q, want the 1s floor", got)
	}

	// Slow requests with full admission occupancy: the hint scales to
	// mean latency x occupancy = 10s x 1.0.
	s.hLatency.Observe(10_000_000) // 10s in microseconds
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	if got := retryAfterHeader(s); got != "10" {
		t.Errorf("loaded hint = %q, want 10", got)
	}

	// Pathological latency clamps at 60s — a confused server must not
	// park its clients for minutes.
	s.hLatency.Observe(1_000_000_000_000)
	if got := retryAfterHeader(s); got != "60" {
		t.Errorf("clamped hint = %q, want 60", got)
	}

	// Zero occupancy: even huge latency history means no queue, so the
	// hint falls back to the floor.
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	if got := retryAfterHeader(s); got != "1" {
		t.Errorf("drained hint = %q, want the floor again", got)
	}
}
