package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/server"
	"afraid/internal/tier"
)

// system is one assembled program under test, as the generator sees it.
type system struct {
	capacity int64
	geo      layout.Geometry // the array the generator's addresses stripe over

	// Where generator spans attach: the array a cluster op drives, or
	// the server a served op is a client call to (-1 for neither).
	opArr, opServer int16

	read, write func(ctx context.Context, issuer int, p []byte, off int64) error
	flush       func(ctx context.Context) error
	checkParity func(ctx context.Context) error
	dirty       func() int64
	counters    func() counters

	devs  []*device // modeled members
	front []*device // unmodeled tier front devices
	close func() error
}

// counters are the public counters a run reads at window edges.
type counters struct {
	core core.Stats // summed over the cluster's node stores
	tier tier.TierStats
	vol  cluster.Stats
}

func (s *system) devStats(devs []*device) devStats {
	var t devStats
	for _, d := range devs {
		t = t.add(d.stats(), 1)
	}
	return t
}

const (
	stripeUnit   = 8 << 10
	members      = 5
	clientConns  = 2 // one per core of the reference host
	clusterNodes = 4
	// nodeUnit is the node stores' stripe unit: the cluster's default
	// unit, so each node call is one device I/O.
	nodeUnit = 64 << 10
)

// serve starts a server for be on a loopback port and returns its
// address and a stop function.
func serve(be server.Backend) (string, func(), error) {
	srv := server.New(be, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// newArray builds members modeled devices and opens a core store over
// them. linked says whether the store's calls are traced (a server calls
// it directly) so that device calls can find their parents.
func newArray(tr *tracer, mode core.Mode, devSize int64, linked bool) (*core.Store, []*device, int, error) {
	devs := make([]*device, members)
	bds := make([]core.BlockDevice, members)
	var err error
	for i := range devs {
		// The array index is assigned once the geometry is known; the
		// devices read it only while tracing, which starts later.
		if devs[i], err = newDevice(devSize, true, tr, 0, i); err != nil {
			shutdownAll(devs[:i])
			return nil, nil, 0, err
		}
		bds[i] = devs[i]
	}
	st, err := core.Open(bds, &core.MemNVRAM{}, core.Options{Mode: mode, StripeUnit: stripeUnit})
	if err != nil {
		shutdownAll(devs)
		return nil, nil, 0, err
	}
	arr := tr.addArray(arrayInfo{geo: st.Geometry(), linked: linked})
	for _, d := range devs {
		d.arr = arr
	}
	return st, devs, arr, nil
}

func shutdownAll(devs []*device) {
	for _, d := range devs {
		if d != nil {
			d.shutdown()
		}
	}
}

// newServed assembles devices → core store (→ tier) → server → clients.
// frontSize > 0 puts a tier.Store with two mirrored memory front
// devices of that size in front of the core store.
func newServed(tr *tracer, mode core.Mode, devSize, frontSize int64) (*system, error) {
	st, devs, arr, err := newArray(tr, mode, devSize, frontSize == 0)
	if err != nil {
		return nil, err
	}
	sys := &system{devs: devs, opArr: -1, opServer: 0, geo: st.Geometry()}
	var be server.Backend = st
	var ts *tier.Store
	if frontSize > 0 {
		farr := tr.addArray(arrayInfo{})
		front := make([]core.BlockDevice, 2)
		for i := range front {
			d, err := newDevice(frontSize, false, tr, farr, i)
			if err != nil {
				return nil, err
			}
			sys.front = append(sys.front, d)
			front[i] = d
		}
		if ts, err = tier.Open(st, front, &core.MemNVRAM{}, tier.Options{}); err != nil {
			st.Close()
			shutdownAll(devs)
			return nil, err
		}
		be = ts
		arr = tr.addArray(arrayInfo{tier: true})
	}
	addr, stop, err := serve(&tracedBackend{Backend: be, tr: tr, server: 0, arr: arr})
	if err != nil {
		return nil, err
	}
	clients := make([]*server.Client, clientConns)
	for i := range clients {
		if clients[i], err = server.Dial(addr); err != nil {
			return nil, err
		}
	}
	sys.capacity = clients[0].Capacity()
	sys.read = func(ctx context.Context, issuer int, p []byte, off int64) error {
		_, err := clients[issuer%clientConns].ReadAtContext(ctx, p, off)
		return err
	}
	sys.write = func(ctx context.Context, issuer int, p []byte, off int64) error {
		_, err := clients[issuer%clientConns].WriteAtContext(ctx, p, off)
		return err
	}
	sys.flush = func(ctx context.Context) error { return clients[0].Flush(ctx) }
	sys.checkParity = func(context.Context) error { return parityClean(st) }
	sys.dirty = be.DirtyStripes
	sys.counters = func() counters {
		c := counters{core: st.Stats()}
		if ts != nil {
			c.tier = ts.TierStats()
		}
		return c
	}
	sys.close = func() error {
		var first error
		for _, c := range clients {
			c.Close()
		}
		stop()
		if ts != nil {
			first = ts.Close()
		}
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		shutdownAll(devs)
		return first
	}
	return sys, nil
}

// parityClean requires every stripe's parity to match its data.
func parityClean(st *core.Store) error {
	bad, err := st.CheckParity()
	if err != nil {
		return fmt.Errorf("check parity: %w", err)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d stripes with bad parity after flush (first %d)", len(bad), bad[0])
	}
	return nil
}

// newCluster assembles four nodes, each a RAID 0 core store over one
// modeled device behind its own server, striped by a cluster volume
// whose node clients are wrapped for tracing.
func newCluster(tr *tracer, devSize int64) (*system, error) {
	volArr := tr.addArray(arrayInfo{linked: true}) // geometry set once open
	sys := &system{opArr: int16(volArr), opServer: -1}
	var stores []*core.Store
	var stops []func()
	members := make([]cluster.Member, clusterNodes)
	cleanup := func() {
		for _, s := range stops {
			s()
		}
		for _, st := range stores {
			st.Close()
		}
		shutdownAll(sys.devs)
	}
	for i := range members {
		d, err := newDevice(devSize, true, tr, 0, 0)
		if err != nil {
			cleanup()
			return nil, err
		}
		sys.devs = append(sys.devs, d)
		st, err := core.Open([]core.BlockDevice{d}, nil, core.Options{Mode: core.Raid0, StripeUnit: nodeUnit})
		if err != nil {
			cleanup()
			return nil, err
		}
		stores = append(stores, st)
		d.arr = tr.addArray(arrayInfo{geo: st.Geometry(), linked: true})
		addr, stop, err := serve(&tracedBackend{Backend: st, tr: tr, server: i, arr: d.arr})
		if err != nil {
			cleanup()
			return nil, err
		}
		stops = append(stops, stop)
		node := i
		dial := func() (cluster.Node, error) {
			c, err := server.DialTimeout(addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &tracedNode{Node: c, tr: tr, node: node, arr: volArr}, nil
		}
		n, err := dial()
		if err != nil {
			cleanup()
			return nil, err
		}
		members[i] = cluster.Member{Addr: addr, Node: n, Dial: dial}
	}
	vol, err := cluster.Open(members, cluster.Options{})
	if err != nil {
		cleanup()
		return nil, err
	}
	tr.arrays[volArr].geo = vol.Geometry()
	sys.capacity = vol.Capacity()
	sys.geo = vol.Geometry()
	sys.read = func(ctx context.Context, _ int, p []byte, off int64) error {
		_, err := vol.ReadContext(ctx, p, off)
		return err
	}
	sys.write = func(ctx context.Context, _ int, p []byte, off int64) error {
		_, err := vol.WriteContext(ctx, p, off)
		return err
	}
	sys.flush = vol.Flush
	sys.checkParity = func(ctx context.Context) error {
		bad, skipped, err := vol.VerifyParity(ctx)
		switch {
		case err != nil:
			return fmt.Errorf("verify parity: %w", err)
		case len(bad) > 0 || skipped > 0:
			return fmt.Errorf("cluster parity: %d bad stripes, %d skipped after flush", len(bad), skipped)
		}
		return nil
	}
	sys.dirty = vol.DirtyStripes
	sys.counters = func() counters {
		// The per-layer metrics read only these core counters on the
		// cluster; RAID 0 node stores have no parity to scrub.
		c := counters{vol: vol.Stats()}
		for _, st := range stores {
			s := st.Stats()
			c.core.Reads += s.Reads
			c.core.Writes += s.Writes
			c.core.NVRAMPersists += s.NVRAMPersists
		}
		return c
	}
	sys.close = func() error {
		err := vol.Close()
		if errors.Is(err, cluster.ErrClosed) {
			err = nil
		}
		cleanup()
		return err
	}
	return sys, nil
}
