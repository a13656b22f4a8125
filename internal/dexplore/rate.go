package dexplore

import "time"

// RateWindow is the span of the sliding-window throughput measurement
// surfaced as Progress.WindowPerSecond (and by the distributed coordinator's
// status endpoint).
const RateWindow = 10 * time.Second

// rateSample is one (time, cumulative count) observation.
type rateSample struct {
	t time.Time
	n int
}

// RateTracker computes a sliding-window completion rate from periodic
// cumulative-counter observations. The mean-since-start rate goes stale on
// long explorations (an hour of history swamps the last minute); the window
// rate tracks what the engine is doing now. Shared by the in-process engine
// and the distributed coordinator (internal/dcoord). Not safe for concurrent
// use; callers serialize under their own lock.
type RateTracker struct {
	window  time.Duration
	samples []rateSample // oldest first; samples[0] is the window baseline
}

// NewRateTracker creates a tracker measuring over the given window.
func NewRateTracker(window time.Duration) *RateTracker {
	return &RateTracker{window: window}
}

// Observe records that the cumulative count had value n at time now, and
// prunes history older than the window. Observations must arrive in time
// order with non-decreasing counts.
func (rt *RateTracker) Observe(now time.Time, n int) {
	rt.samples = append(rt.samples, rateSample{t: now, n: n})
	cutoff := now.Add(-rt.window)
	// Keep the newest sample at or before the cutoff as the baseline, so the
	// measured span covers the whole window rather than a fragment of it.
	i := 0
	for i < len(rt.samples)-1 && !rt.samples[i+1].t.After(cutoff) {
		i++
	}
	if i > 0 {
		rt.samples = append(rt.samples[:0], rt.samples[i:]...)
	}
}

// Rate returns the completion rate over the trailing window ending at now.
// ok is false when there is not yet enough history to measure (no baseline
// observation or zero elapsed span); callers should fall back to the
// mean-since-start rate.
func (rt *RateTracker) Rate(now time.Time, n int) (float64, bool) {
	if len(rt.samples) == 0 {
		return 0, false
	}
	base := rt.samples[0]
	span := now.Sub(base.t)
	if span <= 0 {
		return 0, false
	}
	return float64(n-base.n) / span.Seconds(), true
}

// Snapshot observes that the cumulative count was n at time now and renders
// the throughput half of a Progress for an exploration begun at start: the
// mean since then, and the window rate, which echoes the mean until there is a
// window to measure over.
func (rt *RateTracker) Snapshot(start, now time.Time, n int) Progress {
	p := Progress{Interleavings: n, Elapsed: now.Sub(start)}
	if s := p.Elapsed.Seconds(); s > 0 {
		p.PerSecond = float64(n) / s
	}
	if p.WindowPerSecond, p.WindowValid = rt.Rate(now, n); !p.WindowValid {
		p.WindowPerSecond = p.PerSecond
	}
	rt.Observe(now, n)
	return p
}

// Monitor calls tick every period (DefaultProgressEvery for a Config that set
// none) until stop is closed: the loop behind both engines' OnProgress and the
// job queue's TTL sweep.
func Monitor(period time.Duration, stop <-chan struct{}, tick func()) {
	if period <= 0 {
		period = DefaultProgressEvery
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			tick()
		}
	}
}
