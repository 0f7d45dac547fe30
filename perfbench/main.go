// Command perfbench is the repository's benchmark: it opens an in-process
// deployment through pkg/arjuna, drives one named workload with a closed
// loop of two sequential clients, checks that the committed state is
// correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured over the
// plain network. With --trace 1 the network is wrapped in a tracer and the
// metrics are the per-layer ones. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/action"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

const (
	// A run opens the deployment minSetups to maxSetups times: first the
	// one that is measured, then more until those took setupBudget.
	// setup_s is the median of all of them.
	minSetups, maxSetups = 3, 51
	setupBudget          = 2 // seconds
	// warmup runs the load before the measured window so that instances
	// are activated and caches filled.
	warmup = time.Second
	// opTimeout bounds one action, retries included.
	opTimeout = 5 * time.Second
	// churnEvery and churnDown pace durable-churn's store crashes.
	churnEvery = 3 * time.Second
	churnDown  = 1500 * time.Millisecond
	// traceSegment is the length of the alternating traced and untraced
	// stretches of a traced run's window.
	traceSegment = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated keys and operation mix")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for data directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: *workdir,
	}
	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.Name, cfg.seed, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]metricJSON, len(res.metrics))}
	for _, m := range res.metrics {
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: conservation check failed\n", w.Name, cfg.seed)
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

type runConfig struct {
	w       workload
	seed    int64
	window  time.Duration
	traced  bool
	workdir string
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	// notes are printed for a reader, before the metrics.
	notes []string
}

// deployment is one opened System with the benchmark's clients.
type deployment struct {
	sys     *arjuna.System
	tracer  *Tracer // nil on the plain network
	rw, ro  [clients]*arjuna.Client
	shardOf []int
	// victim is the store node churn crashes: the last shard's last
	// store.
	victim string
}

func open(w workload, dataDir string, traced bool) (*deployment, error) {
	opts := []arjuna.Option{
		arjuna.WithShards(shards),
		arjuna.WithServers(1),
		arjuna.WithStores(w.Stores),
		arjuna.WithClients(clients),
		arjuna.WithObjects(w.Objects),
	}
	var net transport.Network
	if w.Durable {
		net = transport.NewTCPMux()
		opts = append(opts, arjuna.WithDataDir(dataDir), arjuna.WithDiskOptions(storage.DiskOptions{Sync: storage.SyncNone}))
	}
	if w.Leases {
		opts = append(opts, arjuna.WithReadLeases(0))
	}
	var tr *Tracer
	if traced {
		if net == nil {
			net = transport.NewMem(transport.MemOptions{}, nil)
		}
		tr = NewTracer(net)
		net = tr
	}
	if net != nil {
		opts = append(opts, arjuna.WithNetwork(net))
	}
	sys, err := arjuna.Open(opts...)
	if err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, tracer: tr}
	retry := arjuna.ClientRetry(8, 2*time.Millisecond)
	for i := range clients {
		node := "c" + strconv.Itoa(i+1)
		if d.rw[i], err = sys.Client(node, arjuna.ClientFastBind(), retry); err == nil {
			d.ro[i], err = sys.Client(node, arjuna.ClientReadOnly(), retry)
		}
		if err != nil {
			sys.Close()
			return nil, err
		}
	}
	for _, id := range sys.Objects() {
		d.shardOf = append(d.shardOf, sys.ShardOf(id))
	}
	sh := sys.Shards()
	last := sh[len(sh)-1].Stores
	d.victim = string(last[len(last)-1])
	return d, nil
}

// sample is one measured action. Latency is in ms, +Inf when the action
// did not commit.
type sample struct {
	class    int
	doneAt   time.Duration // since the window started
	latency  float64
	traced   bool
	leased   bool // a read served from the lease cache
	commitUs float64
	attempts int
	onePhase bool
	logged   bool
	batched  bool
	over     int
	queue    time.Duration
	excluded int
	skipped  int
}

// tally is one client's account of the committed deltas per object, for
// the conservation check. An action whose outcome is unknown may or may
// not have applied, so it widens the allowed range instead.
type tally struct {
	delta, unknownUp, unknownDown []int64
}

func newTally(n int) tally {
	return tally{make([]int64, n), make([]int64, n), make([]int64, n)}
}

// ambiguous reports whether an action that returned err may still have
// committed.
func ambiguous(err error) bool {
	return errors.Is(err, action.ErrOutcomeUnknown) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, transport.ErrReplyLost)
}

func (t *tally) record(o op, err error) {
	switch {
	case o.class == opRead:
	case err == nil && o.class == opWrite:
		t.delta[o.a]++
	case err == nil:
		t.delta[o.a]--
		t.delta[o.b]++
	case !ambiguous(err):
	case o.class == opWrite:
		t.unknownUp[o.a]++
	default:
		t.unknownDown[o.a]++
		t.unknownUp[o.b]++
	}
}

// do runs one generated action and returns its sample.
func (d *deployment) do(ctx context.Context, client int, objs []uid.UID, o op) (sample, error) {
	s := sample{class: o.class}
	traced := false
	end := func() {}
	if d.tracer != nil {
		ctx, end, traced = d.tracer.Root(ctx)
	}
	var rep *arjuna.CommitReport
	var err error
	var bodyDone time.Time
	start := time.Now()
	switch o.class {
	case opRead:
		rep, err = d.ro[client].Atomic(ctx, func(tx *arjuna.Txn) error {
			out, rerr := tx.Object(objs[o.a]).Read(ctx, "get", nil)
			if rerr == nil {
				_, rerr = strconv.Atoi(string(out))
			}
			return rerr
		})
	case opWrite:
		_, rep, err = d.rw[client].Apply(ctx, objs[o.a], "add", []byte("1"))
	case opCross:
		rep, err = d.rw[client].Atomic(ctx, func(tx *arjuna.Txn) error {
			defer func() { bodyDone = time.Now() }()
			if _, ierr := tx.Object(objs[o.a]).Invoke(ctx, "add", []byte("-1")); ierr != nil {
				return ierr
			}
			_, ierr := tx.Object(objs[o.b]).Invoke(ctx, "add", []byte("1"))
			return ierr
		})
	}
	done := time.Now()
	end()
	s.traced = traced
	s.latency = float64(done.Sub(start)) / 1e6
	if err != nil {
		s.latency = failed
	}
	if !bodyDone.IsZero() {
		s.commitUs = float64(done.Sub(bodyDone)) / 1e3
	}
	if rep != nil {
		s.leased = o.class == opRead && rep.LeaseReads > 0
		s.attempts = rep.Attempts
		s.onePhase = rep.OnePhase
		s.logged = rep.OutcomeLogged
		s.batched = rep.Batched
		s.over = rep.Overloads
		s.queue = rep.QueueWait
		s.excluded = len(rep.ExcludedStores)
		s.skipped = len(rep.BreakerSkipped)
	}
	return s, err
}

func bench(cfg runConfig, log io.Writer) (*result, error) {
	w := cfg.w
	runDir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up: the measured deployment is the process's first, so that
	// peak_rss_mb, read before it is closed, is its own peak and not the
	// garbage of other deployments. Once it is closed, the deployment is
	// opened and closed again until set-up has been timed often enough.
	var setupS []float64
	// openTimed opens deployment k, primes a leased workload's objects,
	// and returns the priming writes' tally and latencies.
	openTimed := func(k int) (*deployment, tally, []float64, error) {
		t0 := time.Now()
		d, err := open(w, filepath.Join(runDir, "data-"+strconv.Itoa(k)), cfg.traced)
		if err != nil {
			return nil, tally{}, nil, fmt.Errorf("open: %w", err)
		}
		objs := d.sys.Objects()
		primed := newTally(len(objs))
		var primeMs []float64
		if w.Leases {
			if primeMs, err = d.prime(objs, &primed, log); err != nil {
				d.sys.Close()
				return nil, tally{}, nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return d, primed, primeMs, nil
	}
	d, primed, primeMs, err := openTimed(0)
	if err != nil {
		return nil, err
	}
	defer d.sys.Close()
	fsType := ""
	if w.Durable {
		fsType = filesystem(runDir)
	}
	fmt.Fprintf(log, "perfbench: %s (%s) seed %d: %v fs=%s\n", w.Name, w.Why, cfg.seed, d.sys, fsType)

	objs := d.sys.Objects()
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(cfg.window)

	// Window-boundary readings of the counters the metrics difference.
	var procAt [2]procSample
	var leaseAt [2]arjuna.LeaseStats
	var ctlErr error
	var crashes int
	var recoverMs []float64
	var seg segments
	ctl := sync.WaitGroup{}
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		time.Sleep(time.Until(winStart))
		procAt[0], leaseAt[0] = sampleProcess(), d.sys.LeaseStats()
		var alt sync.WaitGroup
		if d.tracer != nil {
			alt.Add(1)
			go func() {
				defer alt.Done()
				seg = alternate(d.tracer, winStart, winEnd)
			}()
		}
		if w.Churn {
			crashes, recoverMs, ctlErr = churn(d, winStart, winEnd)
		}
		alt.Wait()
		time.Sleep(time.Until(winEnd))
		procAt[1], leaseAt[1] = sampleProcess(), d.sys.LeaseStats()
	}()

	stats := make([]windowStats, clients)
	for c := range stats {
		stats[c].perSecond = make([]int64, int(cfg.window/time.Second))
	}
	tallies := make([]tally, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		tallies[c] = newTally(len(objs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newGenerator(w, cfg.seed, c, d.shardOf)
			for {
				now := time.Now()
				if !now.Before(winEnd) {
					return
				}
				o := gen.next()
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				s, aerr := d.do(ctx, c, objs, o)
				cancel()
				tallies[c].record(o, aerr)
				if now.Before(winStart) {
					continue
				}
				s.doneAt = time.Since(winStart)
				stats[c].add(s, w, cfg.traced)
				if aerr != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("%s action failed: %w", opNames[o.class], aerr)
				}
			}
		}()
	}
	wg.Wait()
	ctl.Wait()
	if ctlErr != nil {
		return nil, ctlErr
	}
	for _, e := range errs {
		if e != nil {
			fmt.Fprintf(log, "perfbench: first failure: %v\n", e)
			break
		}
	}

	correct, err := conserved(d.sys, objs, append(tallies, primed), log)
	if err != nil {
		return nil, err
	}
	peakMB := peakRSSMB()
	if cfg.traced {
		spans := filepath.Join(cfg.workdir, "spans")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return nil, err
		}
		if err := d.tracer.WriteSpans(filepath.Join(spans, w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	if err := d.sys.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	runtime.GC()
	for k := 1; !enough(setupS[1:], minSetups-1, maxSetups-1, setupBudget); k++ {
		d, _, _, err := openTimed(k)
		if err != nil {
			return nil, err
		}
		if err := d.sys.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}

	var all windowStats
	for i := range stats {
		all.merge(&stats[i])
	}
	res := &result{correct: correct, attempted: all.ops, failed: all.failed}
	m := measurements{
		w: w, window: cfg.window, win: &all, setupS: setupS, recoverMs: recoverMs, primeMs: primeMs,
		crashes: crashes, proc: procAt, lease: leaseAt, seg: seg, peakMB: peakMB,
	}
	if cfg.traced {
		m.trace = d.tracer.Totals()
		res.metrics = m.perLayer()
	} else {
		res.metrics = m.endToEnd()
		res.notes = m.tails()
	}
	win := procAt[1].minus(procAt[0])
	res.notes = append(res.notes,
		fmt.Sprintf("%d actions attempted, %d failed, fail_frac %.6f", res.attempted, res.failed, ratio(res.failed, res.attempted)),
		fmt.Sprintf("window: process cpu %.0f us/action", perOp(float64(win.CPU)/1e3, res.attempted)))
	return res, nil
}

// primers is how many clients prime the objects at once: each write
// waits out the lease clock, so they overlap. A priming write that fails
// is tried again, up to primeAttempts times in all.
const (
	primers       = 64
	primeAttempts = 4
)

// prime writes every object once, primers at a time, each from a client
// of its own. It records every attempt in t, reports retried writes to
// log, and returns the latency in ms of each object's committed write.
func (d *deployment) prime(objs []uid.UID, t *tally, log io.Writer) ([]float64, error) {
	lat := make([]float64, len(objs))
	errs := make([]error, primers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := range primers {
		c, err := d.sys.Client("c"+strconv.Itoa(p%clients+1), arjuna.ClientFastBind(), arjuna.ClientRetry(8, 2*time.Millisecond))
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < len(objs); i += primers {
				for attempt := 1; ; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
					t0 := time.Now()
					_, _, err := c.Apply(ctx, objs[i], "add", []byte("1"))
					lat[i] = float64(time.Since(t0)) / 1e6
					cancel()
					mu.Lock()
					t.record(op{class: opWrite, a: i}, err)
					if err != nil {
						fmt.Fprintf(log, "perfbench: priming object %d, attempt %d: %v\n", i, attempt, err)
					}
					mu.Unlock()
					if err == nil {
						break
					}
					if attempt == primeAttempts {
						errs[p] = fmt.Errorf("prime object %d: %w", i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

// enough reports whether a repeated measurement has at least lo samples
// and either hi samples or a sum of at least budget.
func enough(samples []float64, lo, hi int, budget float64) bool {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return len(samples) >= hi || len(samples) >= lo && sum >= budget
}

// churn crashes the victim store every churnEvery and recovers it
// churnDown later, for as long as a whole cycle fits in the window. It
// returns the crash count and each Recover's duration in ms.
func churn(d *deployment, winStart, winEnd time.Time) (int, []float64, error) {
	var recoverMs []float64
	crashes := 0
	for k := 0; ; k++ {
		crashAt := winStart.Add(churnDown + time.Duration(k)*churnEvery)
		if crashAt.Add(churnDown).After(winEnd) {
			return crashes, recoverMs, nil
		}
		time.Sleep(time.Until(crashAt))
		if err := d.sys.Crash(d.victim); err != nil {
			return crashes, nil, err
		}
		crashes++
		time.Sleep(time.Until(crashAt.Add(churnDown)))
		t0 := time.Now()
		if err := d.sys.Recover(context.Background(), d.victim); err != nil {
			return crashes, nil, fmt.Errorf("recover %s: %w", d.victim, err)
		}
		recoverMs = append(recoverMs, float64(time.Since(t0))/1e6)
	}
}

// segments accounts a traced run's window, split into alternating traced
// and untraced stretches: index 1 is traced, 0 untraced.
type segments struct {
	dur  [2]time.Duration
	proc [2]procSample // summed deltas
}

// alternate switches tracing on and off every traceSegment until winEnd,
// starting traced, and sums the process counters of each kind of stretch.
func alternate(tr *Tracer, winStart, winEnd time.Time) segments {
	var seg segments
	at, prev := winStart, sampleProcess()
	for on := true; at.Before(winEnd); on = !on {
		tr.Enable(on)
		next := at.Add(traceSegment)
		if next.After(winEnd) {
			next = winEnd
		}
		time.Sleep(time.Until(next))
		cur := sampleProcess()
		k := 0
		if on {
			k = 1
		}
		seg.dur[k] += next.Sub(at)
		seg.proc[k] = seg.proc[k].plus(cur.minus(prev))
		at, prev = next, cur
	}
	tr.Enable(false)
	return seg
}

// conserved checks every object's committed counter against the clients'
// tallies: each committed write added 1 and each transfer netted 0, and
// an action of unknown outcome may or may not have applied.
func conserved(sys *arjuna.System, objs []uid.UID, tallies []tally, log io.Writer) (bool, error) {
	ok := true
	for i, id := range objs {
		data, _, err := sys.CommittedState(id)
		if err != nil {
			return false, fmt.Errorf("read committed state: %w", err)
		}
		got, err := strconv.ParseInt(string(data), 10, 64)
		if err != nil {
			return false, fmt.Errorf("object %d: corrupt counter %q", i, data)
		}
		var want, up, down int64
		for _, t := range tallies {
			want += t.delta[i]
			up += t.unknownUp[i]
			down += t.unknownDown[i]
		}
		if got < want-down || got > want+up {
			fmt.Fprintf(log, "perfbench: object %d holds %d, want %d (range [%d, %d])\n", i, got, want, want-down, want+up)
			ok = false
		}
	}
	return ok, nil
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
