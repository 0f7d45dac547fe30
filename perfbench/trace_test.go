package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/pkg/arjuna"
)

func TestTracerForwardsFaultsOfMem(t *testing.T) {
	mem := transport.NewMem(transport.MemOptions{}, nil)
	sys, err := arjuna.Open(arjuna.WithNetwork(NewTracer(mem)), arjuna.WithStores(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Faults() == nil || sys.Faults() != mem.Faults() {
		t.Fatalf("System.Faults() = %p, want the wrapped Mem's plan %p", sys.Faults(), mem.Faults())
	}
	// The forwarded plan takes effect: cutting the client off from the
	// database makes an action fail, healing makes it commit again.
	cli, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	id := sys.Objects()[0]
	ctx := context.Background()
	sys.Faults().Partition("c1", "db")
	if _, _, err := cli.Apply(ctx, id, "add", []byte("1")); err == nil {
		t.Fatal("Apply committed across a partition installed through System.Faults")
	}
	sys.Faults().Heal("c1", "db")
	if _, _, err := cli.Apply(ctx, id, "add", []byte("1")); err != nil {
		t.Fatalf("Apply after heal: %v", err)
	}
}

func TestTracerClosesMuxSockets(t *testing.T) {
	mux := transport.NewTCPMux()
	sys, err := arjuna.Open(arjuna.WithNetwork(NewTracer(mux)))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Faults() != nil {
		t.Errorf("System.Faults() over sockets = %p, want nil as on the bare TCPMux", sys.Faults())
	}
	ping := transport.Request{From: "c1", To: "db", Service: "groupview", Method: "no-such-method"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := mux.Call(ctx, ping); errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("db unreachable before Close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Call(ctx, ping); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call after System.Close = %v, want ErrUnreachable: the mux listeners are still open", err)
	}
}

func TestTracerSelfTimeExcludesNestedCalls(t *testing.T) {
	mem := transport.NewMem(transport.MemOptions{}, nil)
	tr := NewTracer(mem)
	tr.keepEvery = 1
	const work = 2 * time.Millisecond
	tr.Register("store", func(ctx context.Context, req transport.Request) ([]byte, error) {
		time.Sleep(work)
		return []byte("ok"), nil
	})
	tr.Register("server", func(ctx context.Context, req transport.Request) ([]byte, error) {
		return tr.Call(ctx, transport.Request{From: "server", To: "store", Service: "objectstore", Method: "Prepare"})
	})
	tr.Enable(true)
	ctx, end, on := tr.Root(context.Background())
	if !on {
		t.Fatal("Root reports recording off after Enable(true)")
	}
	if _, err := tr.Call(ctx, transport.Request{From: "c1", To: "server", Service: "objsrv", Method: "Prepare", Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	end()
	tot := tr.Totals()
	srv, st := tot.Services["objsrv"], tot.Services["objectstore"]
	if srv.Calls != 1 || srv.Handled != 1 || st.Calls != 1 || st.Handled != 1 {
		t.Fatalf("calls/handled objsrv %d/%d objectstore %d/%d, want 1 each", srv.Calls, srv.Handled, st.Calls, st.Handled)
	}
	if srv.Bytes != 5 {
		t.Errorf("objsrv bytes = %d, want 5 (3 request + 2 reply)", srv.Bytes)
	}
	if st.SelfNs < int64(work) {
		t.Errorf("objectstore self time %v, want at least the %v it slept", time.Duration(st.SelfNs), work)
	}
	if srv.SelfNs >= int64(work) {
		t.Errorf("objsrv self time %v includes its nested objectstore call", time.Duration(srv.SelfNs))
	}
	var kinds []string
	for _, s := range tr.kept {
		if s.Trace != 1 {
			t.Errorf("span %+v not in the root's trace", s)
		}
		kinds = append(kinds, s.Kind+":"+s.Service)
	}
	if len(kinds) != 5 {
		t.Errorf("kept spans %v, want root plus a call and a handler per hop", kinds)
	}
	tr.Enable(false)
	if _, err := tr.Call(context.Background(), transport.Request{From: "c1", To: "store", Service: "objectstore"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Totals().Services["objectstore"].Calls; got != 1 {
		t.Errorf("objectstore calls after disabling = %d, want still 1", got)
	}
}
