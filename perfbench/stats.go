package main

import (
	"math"
	"slices"
	"time"
)

// minTailSamples is the sample count a class needs before its p99 is
// reported: at 1,000 samples, ten lie beyond the 99th percentile.
const minTailSamples = 1000

// failed is the latency recorded for an action that did not commit: it
// missed every latency limit, so it sorts beyond every real sample.
var failed = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples,
// which it sorts in place. It returns NaN for no samples.
func percentile[T float32 | float64 | int64](samples []T, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return float64(samples[max(rank, 0)])
}

// classLatency summarises one operation class. P99 is set only when the
// class has at least minTailSamples samples; a shorter class reports its
// median alone rather than a tail resting on fewer than ten samples.
type classLatency struct {
	N      int
	P50    float64
	P99    float64
	HasP99 bool
}

func summarise[T float32 | float64](samples []T) classLatency {
	s := classLatency{N: len(samples), P50: percentile(samples, 0.50)}
	if len(samples) >= minTailSamples {
		s.P99, s.HasP99 = percentile(samples, 0.99), true
	}
	return s
}

// perOp normalises a window total by the actions attempted in the window;
// an empty window reports zero rather than NaN.
func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio is perOp for two counts.
func ratio(num, den int64) float64 { return perOp(float64(num), den) }

// interval is a [start, end) span of time on the run's clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its child spans
// cover. Children may overlap one another (a parallel fan-out) and may
// stick out of the parent (a detached call); only the union of their
// overlap with the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.start - b.start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
