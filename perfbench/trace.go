package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Span kinds.
const (
	kindRoot    = "root"    // one Atomic/Apply call of the benchmark
	kindCall    = "call"    // one transport Call, timed at the caller
	kindHandler = "handler" // one delivery, timed around the callee's handler
)

// Span is one timed interval of the traced run. Times are nanoseconds since
// the tracer was created.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace,omitempty"`
	Kind    string `json:"kind"`
	Service string `json:"service,omitempty"`
	Method  string `json:"method,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Err     bool   `json:"err,omitempty"`
}

// liveSpan is a span whose children are still being recorded.
type liveSpan struct {
	Span
	mu       sync.Mutex
	children []interval
}

func (s *liveSpan) addChild(c interval) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

type spanKey struct{}

func spanFrom(ctx context.Context) *liveSpan {
	s, _ := ctx.Value(spanKey{}).(*liveSpan)
	return s
}

// serviceTotals accumulates one RPC service's traffic while tracing is on.
type serviceTotals struct {
	Calls, Errors, Bytes int64
	Handled              int64
	SelfNs               int64
}

// Tracer is a transport.Network that records a client span for every Call
// and a handler span for every delivery, with parents taken from the
// context. On the in-memory network a handler runs on the caller's
// goroutine with the caller's context, so nested calls hang under the
// handler that made them; over sockets the context does not travel, and
// handler spans start new trees.
//
// Recording happens only while Enable(true) is in force; otherwise calls
// pass straight through. Totals are kept for every recorded span; whole
// spans are kept for one trace in keepEvery, up to keepCap, and written
// out by WriteSpans.
type Tracer struct {
	inner transport.Network
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	keepEvery uint64
	keepCap   int

	mu       sync.Mutex
	services map[string]*serviceTotals
	rttUs    []float64
	// selfUs holds the self time of each handler span of one method,
	// keyed "service.Method", for the methods in watchSelf.
	selfUs map[string][]float64
	kept   []Span
}

// watchSelf names the handlers whose per-call self-time distribution is
// reported, not only their totals.
var watchSelf = map[string]bool{"groupview.EndAction": true}

// NewTracer wraps inner.
func NewTracer(inner transport.Network) *Tracer {
	return &Tracer{
		inner:     inner,
		t0:        time.Now(),
		keepEvery: 64,
		keepCap:   100_000,
		services:  make(map[string]*serviceTotals),
		selfUs:    make(map[string][]float64),
	}
}

var _ transport.Network = (*Tracer)(nil)

// Enable switches recording on or off.
func (t *Tracer) Enable(on bool) { t.on.Store(on) }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *Tracer) child(parent *liveSpan, kind string) *liveSpan {
	s := &liveSpan{Span: Span{ID: t.ids.Add(1), Kind: kind, Start: t.now()}}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	return s
}

// Root opens the span of one benchmark action and returns the context that
// carries it, the function that closes it, and whether recording is on.
// It opens nothing while recording is off.
func (t *Tracer) Root(ctx context.Context) (context.Context, func(), bool) {
	if !t.on.Load() {
		return ctx, func() {}, false
	}
	s := t.child(nil, kindRoot)
	s.Trace = s.ID
	return context.WithValue(ctx, spanKey{}, s), func() {
		s.End = t.now()
		t.finish(s)
	}, true
}

// Register installs a handler wrapped so that every delivery is a span.
func (t *Tracer) Register(addr transport.Addr, h transport.Handler) {
	t.inner.Register(addr, func(ctx context.Context, req transport.Request) ([]byte, error) {
		if !t.on.Load() {
			return h(ctx, req)
		}
		s := t.child(spanFrom(ctx), kindHandler)
		s.Service, s.Method = req.Service, req.Method
		resp, err := h(context.WithValue(ctx, spanKey{}, s), req)
		s.End = t.now()
		s.Err = err != nil
		t.finish(s)
		return resp, err
	})
}

// Unregister forwards to the wrapped network.
func (t *Tracer) Unregister(addr transport.Addr) { t.inner.Unregister(addr) }

// Call forwards req, recording a client span under the context's span.
func (t *Tracer) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	if !t.on.Load() {
		return t.inner.Call(ctx, req)
	}
	parent := spanFrom(ctx)
	s := t.child(parent, kindCall)
	s.Service, s.Method = req.Service, req.Method
	resp, err := t.inner.Call(context.WithValue(ctx, spanKey{}, s), req)
	s.End = t.now()
	s.Bytes = len(req.Payload) + len(resp)
	s.Err = err != nil
	if parent != nil {
		parent.addChild(interval{time.Duration(s.Start), time.Duration(s.End)})
	}
	t.finish(s)
	return resp, err
}

// finish folds a closed span into the totals and keeps it if sampled.
func (t *Tracer) finish(s *liveSpan) {
	if s.Kind == kindHandler {
		s.mu.Lock()
		s.SelfNs = int64(selfTime(interval{time.Duration(s.Start), time.Duration(s.End)}, s.children))
		s.mu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Kind != kindRoot {
		st := t.services[s.Service]
		if st == nil {
			st = &serviceTotals{}
			t.services[s.Service] = st
		}
		switch s.Kind {
		case kindCall:
			st.Calls++
			st.Bytes += int64(s.Bytes)
			if s.Err {
				st.Errors++
			}
			t.rttUs = append(t.rttUs, float64(s.End-s.Start)/1e3)
		case kindHandler:
			st.Handled++
			st.SelfNs += s.SelfNs
			if key := s.Service + "." + s.Method; watchSelf[key] {
				t.selfUs[key] = append(t.selfUs[key], float64(s.SelfNs)/1e3)
			}
		}
	}
	if s.Trace%t.keepEvery == 0 && len(t.kept) < t.keepCap {
		t.kept = append(t.kept, s.Span)
	}
}

// traceTotals is a snapshot of what the tracer recorded.
type traceTotals struct {
	Services map[string]serviceTotals
	RttUs    []float64
	SelfUs   map[string][]float64
}

// Totals returns a copy of the recorded totals.
func (t *Tracer) Totals() traceTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := traceTotals{
		Services: make(map[string]serviceTotals, len(t.services)),
		RttUs:    append([]float64(nil), t.rttUs...),
		SelfUs:   make(map[string][]float64, len(t.selfUs)),
	}
	for k, v := range t.services {
		out.Services[k] = *v
	}
	for k, v := range t.selfUs {
		out.SelfUs[k] = append([]float64(nil), v...)
	}
	return out
}

// WriteSpans writes the kept spans to path, one JSON object a line.
func (t *Tracer) WriteSpans(path string) error {
	t.mu.Lock()
	kept := t.kept
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range kept {
		if err := enc.Encode(&kept[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Faults forwards the wrapped network's fault plan, so System.Faults
// behaves as on the bare network: the plan of a Mem, nil over sockets.
func (t *Tracer) Faults() *transport.Faults {
	if f, ok := t.inner.(interface{ Faults() *transport.Faults }); ok {
		return f.Faults()
	}
	return nil
}

// Close closes the wrapped network when it owns resources (the sockets of
// a TCPMux), so System.Close tears it down as it would the bare network.
func (t *Tracer) Close() error {
	switch c := t.inner.(type) {
	case interface{ Close() error }:
		return c.Close()
	case interface{ Close() }:
		c.Close()
	}
	return nil
}
