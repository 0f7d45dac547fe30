package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Deployment shape shared by every workload: three shards, each with its
// own group view database, one object server and the placement service;
// two client nodes, each running one sequential application client.
const (
	shards  = 3
	clients = 2
)

// Operation classes, as cmd/loadgen draws them.
const (
	opRead  = iota // ClientReadOnly Atomic calling get
	opWrite        // Apply(add 1)
	opCross        // one Atomic moving 1 between objects on two shards
	numOps
)

var opNames = [numOps]string{"read", "write", "cross"}

// workload is one named input of the benchmark. Each loads a different
// layer heavily and leaves another idle; Why says which.
type workload struct {
	Name    string
	Why     string
	Objects int
	// Stores is the number of object-store nodes per shard.
	Stores int
	// ZipfS is the key skew; 0 draws keys uniformly.
	ZipfS float64
	// Mix is the read/write/cross share of the actions.
	Mix [numOps]float64
	// Leases opens the deployment WithReadLeases at the default TTL. Its
	// set-up then writes every object once, so that each object server
	// instance's first commit, which waits out the lease clock (2×TTL),
	// falls before the measured window.
	Leases bool
	// Durable runs over loopback TCPMux sockets with WithDataDir storage.
	// The WAL is written without fsync: on a disk shared with other
	// machines, fsync's latency swings by a third from one run to the
	// next, and no bound could hold the write latency it adds to.
	Durable bool
	// Churn crashes the last shard's second store every churnEvery and
	// recovers it churnDown later.
	Churn bool
}

var workloads = []workload{
	{
		Name:    "mix-64",
		Why:     "reference CPU cost of binds, locks and 2PC with a small group-view image; no disk, sockets or leases",
		Objects: 64, Stores: 1, ZipfS: 1.1, Mix: [numOps]float64{0.50, 0.40, 0.10},
	},
	{
		Name:    "catalog-2k",
		Why:     "2048 objects, uniform keys: every committing bind rewrites a large group-view image and Open is quadratic",
		Objects: 2048, Stores: 1, ZipfS: 0, Mix: [numOps]float64{0.20, 0.70, 0.10},
	},
	{
		Name:    "read-leased",
		Why:     "read-mostly with read leases: the lease cache serves reads and every version-advancing commit runs the lease fence",
		Objects: 256, Stores: 1, ZipfS: 1.1, Mix: [numOps]float64{0.90, 0.08, 0.02}, Leases: true,
	},
	{
		Name:    "durable-churn",
		Why:     "store crash and recovery (St-exclude, Include) over mux sockets with an on-disk WAL",
		Objects: 256, Stores: 2, ZipfS: 1.1, Mix: [numOps]float64{0.30, 0.60, 0.10}, Durable: true, Churn: true,
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// op is one generated action.
type op struct {
	class int
	a, b  int // object indexes; b is used by cross only, and a < b
}

// generator draws one client's actions. Its sequence depends only on the
// seed and the client index, never on timing.
type generator struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	n       int
	mix     [numOps]float64
	shardOf []int
}

func newGenerator(w workload, seed int64, client int, shardOf []int) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	g := &generator{rng: rng, n: len(shardOf), mix: w.Mix, shardOf: shardOf}
	if w.ZipfS > 0 {
		g.zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(len(shardOf)-1))
	}
	return g
}

func (g *generator) key() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.n)
}

func (g *generator) next() op {
	o := op{class: opWrite, a: g.key()}
	switch roll := g.rng.Float64(); {
	case roll < g.mix[opRead]:
		o.class = opRead
	case roll >= g.mix[opRead]+g.mix[opWrite]:
		o.class = opCross
		// The second key is drawn from the same distribution until it
		// lands on another shard; binding in index order keeps two
		// transfers over one pair from deadlocking AB-BA.
		o.b = g.key()
		for g.shardOf[o.b] == g.shardOf[o.a] {
			o.b = g.key()
		}
		if o.a > o.b {
			o.a, o.b = o.b, o.a
		}
	}
	return o
}
