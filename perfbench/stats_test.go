package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInfinitelySlow(t *testing.T) {
	// Ten actions: eight committed in 1..8 ms, two failed.
	s := []float64{3, failed, 1, 2, 4, 5, failed, 6, 7, 8}
	if got := percentile(append([]float64(nil), s...), 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5 (the failures rank above every real sample)", got)
	}
	if got := percentile(append([]float64(nil), s...), 0.8); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(append([]float64(nil), s...), 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: one action in five failed", got)
	}
	if got := percentile([]float64(nil), 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so summarise must sort
		}
		return s
	}
	short := summarise(ramp(999))
	if short.HasP99 || short.P99 != 0 {
		t.Errorf("999 samples: HasP99=%v P99=%v, want no p99", short.HasP99, short.P99)
	}
	if short.N != 999 || short.P50 != 500 {
		t.Errorf("999 samples: N=%d P50=%v, want 999 and 500", short.N, short.P50)
	}
	long := summarise(ramp(1000))
	if !long.HasP99 || long.P99 != 990 {
		t.Errorf("1000 samples: HasP99=%v P99=%v, want p99 990 with ten samples beyond it", long.HasP99, long.P99)
	}
	withFailures := ramp(1000)
	for i := range 10 {
		withFailures[i] = failed
	}
	if got := summarise(withFailures); got.P99 != 990 {
		t.Errorf("ten failures in 1000: p99 = %v, want 990", got.P99)
	}
	withFailures[10] = failed
	if got := summarise(withFailures); !math.IsInf(got.P99, 1) {
		t.Errorf("eleven failures in 1000: p99 = %v, want +Inf", got.P99)
	}
}

func TestPerOp(t *testing.T) {
	if got := perOp(1170, 100); got != 11.7 {
		t.Errorf("perOp(1170, 100) = %v, want 11.7", got)
	}
	if got := perOp(5, 0); got != 0 {
		t.Errorf("perOp over an empty window = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestSelfTimeOnSpanTree(t *testing.T) {
	us := func(a, b int) interval {
		return interval{time.Duration(a) * time.Microsecond, time.Duration(b) * time.Microsecond}
	}
	// An objsrv handler [0, 100) that calls objectstore twice in
	// sequence, then fans out to two group members in parallel, and
	// leaves a detached call running past its own end.
	handler := us(0, 100)
	children := []interval{
		us(10, 20),  // objectstore prepare
		us(30, 45),  // objectstore commit
		us(50, 70),  // group member 1
		us(60, 80),  // group member 2, overlapping member 1
		us(95, 130), // detached: only [95, 100) lies inside the handler
	}
	want := 100*time.Microsecond - (10+15+30+5)*time.Microsecond
	if got := selfTime(handler, children); got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(handler, nil); got != 100*time.Microsecond {
		t.Errorf("leaf self time = %v, want the whole span", got)
	}
	// A child nested inside another child's interval covers nothing new.
	if got := selfTime(us(0, 10), []interval{us(2, 8), us(3, 4)}); got != 4*time.Microsecond {
		t.Errorf("nested children: self time = %v, want 4µs", got)
	}
}
