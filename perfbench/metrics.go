package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/pkg/arjuna"
)

// services are the RPC services whose traffic and self time are reported
// one by one, keyed by the request's Service.
var services = []string{"groupview", "objsrv", "objectstore", "group", "placement"}

// measurements is everything a run observed, ready to be turned into
// metrics.
type measurements struct {
	w         workload
	window    time.Duration
	win       *windowStats
	setupS    []float64
	recoverMs []float64
	primeMs   []float64 // the priming writes, each its object's first commit
	crashes   int
	proc      [2]procSample // at window start and end
	lease     [2]arjuna.LeaseStats
	seg       segments
	trace     traceTotals
	peakMB    float64 // peak resident set at the end of the window
}

// windowStats accumulates the actions measured in the window: each
// class's latencies, kept exactly, and the CommitReport counts the
// per-layer metrics need. It grows by 4 bytes an action (more in traced
// runs), so the benchmark's own memory stays small next to the
// deployment's in peak_rss_mb.
type windowStats struct {
	lat         [numOps][]float32 // ms; +Inf for a failed action
	ops, failed int64
	// perSecond counts the actions that committed in each second of the
	// window, by the second they finished in.
	perSecond []int64
	// byTrace counts actions started with tracing off [0] and on [1].
	byTrace [2]int64

	attempts, onePhase, logged, overloads, skipped, excluded int64
	reads, leased, writes, batched, versioned, stalled       int64
	// queueMs and commitUs are kept in traced runs only.
	queueMs, commitUs []float32
}

func (ws *windowStats) add(s sample, w workload, traced bool) {
	ws.lat[s.class] = append(ws.lat[s.class], float32(s.latency))
	ws.ops++
	ok := !math.IsInf(s.latency, 1)
	if !ok {
		ws.failed++
	} else if sec := int(s.doneAt / time.Second); sec < len(ws.perSecond) {
		ws.perSecond[sec]++
	}
	if s.traced {
		ws.byTrace[1]++
	} else {
		ws.byTrace[0]++
	}
	ws.attempts += int64(s.attempts)
	ws.overloads += int64(s.over)
	ws.skipped += int64(s.skipped)
	ws.excluded += int64(s.excluded)
	if s.onePhase {
		ws.onePhase++
	}
	if s.logged {
		ws.logged++
	}
	switch s.class {
	case opRead:
		ws.reads++
		if s.leased {
			ws.leased++
		}
	case opWrite:
		ws.writes++
		if s.batched {
			ws.batched++
		}
	}
	if s.class != opRead && ok {
		ws.versioned++
		if w.Leases && s.latency >= float64(2*arjuna.DefaultLeaseTTL)/1e6 {
			ws.stalled++
		}
	}
	if traced {
		ws.queueMs = append(ws.queueMs, float32(float64(s.queue)/1e6))
		if s.class == opCross && ok {
			ws.commitUs = append(ws.commitUs, float32(s.commitUs))
		}
	}
}

func (ws *windowStats) merge(o *windowStats) {
	for c := range ws.lat {
		ws.lat[c] = append(ws.lat[c], o.lat[c]...)
	}
	ws.ops += o.ops
	ws.failed += o.failed
	if ws.perSecond == nil {
		ws.perSecond = make([]int64, len(o.perSecond))
	}
	for i, n := range o.perSecond {
		ws.perSecond[i] += n
	}
	ws.byTrace[0] += o.byTrace[0]
	ws.byTrace[1] += o.byTrace[1]
	ws.attempts += o.attempts
	ws.onePhase += o.onePhase
	ws.logged += o.logged
	ws.overloads += o.overloads
	ws.skipped += o.skipped
	ws.excluded += o.excluded
	ws.reads += o.reads
	ws.leased += o.leased
	ws.writes += o.writes
	ws.batched += o.batched
	ws.versioned += o.versioned
	ws.stalled += o.stalled
	ws.queueMs = append(ws.queueMs, o.queueMs...)
	ws.commitUs = append(ws.commitUs, o.commitUs...)
}

// endToEnd is what a user of the system sees: throughput, each class's
// median latency, set-up time and memory. These are the metrics every
// workload reports. Throughput is the median of the window's one-second
// counts of committed actions, so a few seconds in which the machine
// ran the process slowly do not move it.
func (m *measurements) endToEnd() []metric {
	out := []metric{{"throughput_ops_s", percentile(slices.Clone(m.win.perSecond), 0.5), "actions/s"}}
	for c := range numOps {
		out = append(out, metric{opNames[c] + "_p50_ms", percentile(m.win.lat[c], 0.5), "ms"})
	}
	return append(out,
		metric{"setup_s", percentile(m.setupS, 0.5), "s"},
		metric{"peak_rss_mb", m.peakMB, "MB"},
	)
}

// tails describes each class's sample count and, for a class with at least
// minTailSamples samples, its p99. Workloads that never reach that count
// in a class have no p99 to report, so tails are printed, not in the
// metrics every workload shares.
func (m *measurements) tails() []string {
	var out []string
	for c := range numOps {
		l := summarise(m.win.lat[c])
		tail := fmt.Sprintf("fewer than %d samples, no p99", minTailSamples)
		if l.HasP99 {
			tail = fmt.Sprintf("%s_p99_ms %.4f ms", opNames[c], l.P99)
		}
		out = append(out, fmt.Sprintf("%s: n=%d, %s", opNames[c], l.N, tail))
	}
	out = append(out, fmt.Sprintf("committed per second: %v", m.win.perSecond))
	if m.w.Churn {
		out = append(out, fmt.Sprintf("recover_ms %.4f ms: median of %d recoveries under load", orZero(percentile(m.recoverMs, 0.5)), len(m.recoverMs)))
	}
	return out
}

// perLayer breaks a traced run down by layer. Per-op figures divide by
// the actions attempted in the window, except those drawn from the
// tracer, which divide by the actions attempted while it recorded.
func (m *measurements) perLayer() []metric {
	ws := m.win
	ops, traced := ws.ops, ws.byTrace[1]
	var calls, bytes, errs int64
	for _, st := range m.trace.Services {
		calls += st.Calls
		bytes += st.Bytes
		errs += st.Errors
	}
	out := []metric{
		{"transport.calls_per_op", ratio(calls, traced), "calls"},
		{"transport.bytes_per_op", ratio(bytes, traced), "bytes"},
		{"transport.errors_per_op", ratio(errs, traced), "errors"},
		{"transport.rtt_p50_us", orZero(percentile(m.trace.RttUs, 0.50)), "us"},
		{"transport.rtt_p99_us", orZero(percentile(m.trace.RttUs, 0.99)), "us"},
	}
	for _, svc := range services {
		st := m.trace.Services[svc]
		out = append(out,
			metric{svc + ".calls_per_op", ratio(st.Calls, traced), "calls"},
			metric{svc + ".self_us_per_op", perOp(float64(st.SelfNs)/1e3, traced), "us"},
		)
	}
	out = append(out,
		metric{"groupview.EndAction.self_us_p50", orZero(percentile(m.trace.SelfUs["groupview.EndAction"], 0.5)), "us"},

		metric{"action.attempts_per_op", ratio(ws.attempts, ops), "attempts"},
		metric{"action.one_phase_frac", ratio(ws.onePhase, ops), "ratio"},
		metric{"action.outcome_logged_frac", ratio(ws.logged, ops), "ratio"},
		metric{"action.commit_us_p50", orZero(percentile(ws.commitUs, 0.5)), "us"},

		metric{"lockmgr.queue_wait_p99_ms", orZero(percentile(ws.queueMs, 0.99)), "ms"},
		metric{"lockmgr.overloads_per_op", ratio(ws.overloads, ops), "count"},
		metric{"object.batched_frac", ratio(ws.batched, ws.writes), "ratio"},
	)

	l0, l1 := m.lease[0], m.lease[1]
	l1Hits, l1Miss := l1.L1Hits-l0.L1Hits, l1.L1Misses-l0.L1Misses
	l2Hits, l2Miss := l1.L2Hits-l0.L2Hits, l1.L2Misses-l0.L2Misses
	out = append(out,
		metric{"lease.served_frac", ratio(ws.leased, ws.reads), "ratio"},
		metric{"lease.l1_hit_rate", ratio(l1Hits, l1Hits+l1Miss), "ratio"},
		metric{"lease.l2_hit_rate", ratio(l2Hits, l2Hits+l2Miss), "ratio"},
		metric{"lease.grants_per_op", ratio(l1.Grants-l0.Grants, ops), "count"},
		metric{"lease.invalidations_per_op", ratio(l1.Invalidations-l0.Invalidations, ops), "count"},
		metric{"lease.waitouts", float64(l1.Waitouts - l0.Waitouts), "count"},
		metric{"lease.fence_stall_frac", ratio(ws.stalled, ws.versioned), "ratio"},
		metric{"lease.first_commit_ms", orZero(percentile(m.primeMs, 0.5)), "ms"},

		metric{"core.recover_ms", orZero(percentile(m.recoverMs, 0.5)), "ms"},
		metric{"core.excluded_per_crash", ratio(ws.excluded, int64(m.crashes)), "stores"},
		metric{"rpc.breaker_skips_per_op", ratio(ws.skipped, ops), "count"},
		metric{"storage.write_bytes_per_op", perOp(float64(max(m.proc[1].WriteBytes-m.proc[0].WriteBytes, 0)), ops), "bytes"},
	)

	// Process costs come from the untraced stretches, so the tracer's own
	// work does not count; the traced stretches give its overhead.
	segOps := ws.byTrace
	plain := m.seg.proc[0]
	cpuPerOp := func(k int) float64 { return perOp(float64(m.seg.proc[k].CPU)/1e3, segOps[k]) }
	rate := func(k int) float64 { return perOp(float64(segOps[k]), int64(m.seg.dur[k]/time.Millisecond)) }
	out = append(out,
		metric{"process.cpu_us_per_op", cpuPerOp(0), "us"},
		metric{"process.allocs_per_op", perOp(float64(plain.Allocs), segOps[0]), "count"},
		metric{"process.alloc_bytes_per_op", perOp(float64(plain.AllocBytes), segOps[0]), "bytes"},
		metric{"process.gc_cpu_frac", fraction(plain.GCCPU, plain.TotalCPU), "ratio"},
		metric{"trace.overhead_cpu_frac", fraction(cpuPerOp(1)-cpuPerOp(0), cpuPerOp(0)), "ratio"},
		metric{"trace.overhead_throughput_frac", fraction(rate(0)-rate(1), rate(0)), "ratio"},
	)
	return out
}

func fraction(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero reports a percentile of no samples as zero.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func (a procSample) minus(b procSample) procSample {
	return procSample{
		CPU:        a.CPU - b.CPU,
		Allocs:     a.Allocs - b.Allocs,
		AllocBytes: a.AllocBytes - b.AllocBytes,
		GCCPU:      a.GCCPU - b.GCCPU,
		TotalCPU:   a.TotalCPU - b.TotalCPU,
		WriteBytes: a.WriteBytes - b.WriteBytes,
	}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{
		CPU:        a.CPU + b.CPU,
		Allocs:     a.Allocs + b.Allocs,
		AllocBytes: a.AllocBytes + b.AllocBytes,
		GCCPU:      a.GCCPU + b.GCCPU,
		TotalCPU:   a.TotalCPU + b.TotalCPU,
		WriteBytes: a.WriteBytes + b.WriteBytes,
	}
}
