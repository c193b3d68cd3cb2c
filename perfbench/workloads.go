package main

import (
	"time"

	"afraid/internal/core"
)

// workload is one benchmark input: a system to assemble and the traffic
// to send it.
type workload struct {
	name, why string
	sh        shape
	build     func(tr *tracer) (*system, error)
	issuers   int // request-issuing goroutines
	warmup    int // closed loop: requests sent before timing starts
}

// burst is the ON/OFF small-write schedule of the two core workloads:
// 250 requests/s for 400 ms, then 600 ms idle, well past the 100 ms
// idle threshold. One request in five re-reads a block written earlier.
// At twice this intensity RAID 5 saturates the server's worker pool,
// and its latency then follows host noise: one seed's write p50 ranged
// from 24 to 40 ms across runs on a shared two-vCPU host.
var burst = shape{blockSize: 4 << 10, readFrac: 0.2, open: true, rate: 250, on: 400 * time.Millisecond, off: 600 * time.Millisecond}

// openIssuers is the goroutines an open-loop workload issues from over
// its two connections: the server's default in-flight window, so a
// backlog queues at the server rather than in the generator.
const openIssuers = 256

var workloads = []workload{
	{
		name:    "burst-write",
		why:     "bursty 4 KiB writes on AFRAID with idle gaps: the paper's deferred parity, one member I/O per write, scrubbed in the gaps",
		sh:      burst,
		build:   func(tr *tracer) (*system, error) { return newServed(tr, core.Afraid, 16<<20, 0) },
		issuers: openIssuers,
	},
	{
		name:    "burst-write-raid5",
		why:     "the same schedule on RAID 5: four member I/Os per write, the synchronous read-modify-write the paper removes",
		sh:      burst,
		build:   func(tr *tracer) (*system, error) { return newServed(tr, core.Raid5, 16<<20, 0) },
		issuers: openIssuers,
	},
	{
		name: "tier-mixed",
		why:  "closed-loop 70/30 reads/writes of 16 KiB, Zipf 1.1, on a tier whose front holds 1/16 of the data: hits, promotions, demotions",
		// 16 KiB blocks over the 128 MiB the back array holds.
		sh:      shape{blockSize: 16 << 10, readFrac: 0.7, zipf: 1.1},
		build:   func(tr *tracer) (*system, error) { return newServed(tr, core.Afraid, 32<<20, 8<<20) },
		issuers: clientConns,
		warmup:  2000,
	},
	{
		name: "cluster-burst",
		why:  "ON/OFF 50/50 reads/writes of 16 KiB on a 4-node loopback cluster: its marking, drains, hedged reads and node RPCs",
		// The OFF gap leaves the volume's drain time to rebuild a burst's
		// stripes, so dirty stripes do not pile up across cycles.
		sh: shape{blockSize: 16 << 10, readFrac: 0.5, open: true, rate: 200, on: 300 * time.Millisecond, off: 900 * time.Millisecond},
		build: func(tr *tracer) (*system, error) {
			return newCluster(tr, 32<<20)
		},
		issuers: clientConns,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
