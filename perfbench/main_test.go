package main

import (
	"io"
	"strconv"
	"testing"
)

func TestPrimeWritesEveryObjectOnce(t *testing.T) {
	w := workload{Name: "prime", Objects: 12, Stores: 1, Leases: true}
	d, err := open(w, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.sys.Close()
	objs := d.sys.Objects()
	primed := newTally(len(objs))
	lat, err := d.prime(objs, &primed, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != len(objs) {
		t.Fatalf("prime returned %d latencies for %d objects", len(lat), len(objs))
	}
	for i, id := range objs {
		data, _, err := d.sys.CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := strconv.Atoi(string(data)); got != 1 || primed.delta[i] != 1 {
			t.Errorf("object %d: counter %s, tallied %d; want both 1", i, data, primed.delta[i])
		}
		if lat[i] <= 0 {
			t.Errorf("object %d: latency %v ms", i, lat[i])
		}
	}
	ok, err := conserved(d.sys, objs, []tally{primed}, io.Discard)
	if err != nil || !ok {
		t.Fatalf("conservation after priming: ok=%v err=%v", ok, err)
	}
}
