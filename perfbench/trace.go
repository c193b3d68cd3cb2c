package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/layout"
	"afraid/internal/server"
)

// The tracer records one span per call across a layer boundary, from
// wrappers the benchmark owns: the generator's own calls (op), the
// cluster's calls into each node client (node), each server's calls
// into its store (backend) and each store's calls into a member
// (device). Spans are kept in memory and analysed when the run ends.
//
// Parents are found through in-flight tables. The generator never has
// two requests on one block in flight, so a server's backend call is
// linked to the client call at the same (server, offset). A device or
// node call is linked through the stripe it touches (layout geometry)
// to the store or volume call in flight on that stripe; one with no
// such parent is background work: scrub, drain or migration.

type spanKind uint8

const (
	kindOp spanKind = iota
	kindNode
	kindBackend
	kindDevice
)

type span struct {
	kind     spanKind
	write    bool
	modeled  bool  // device: served by the disk model
	arr      int16 // backend/op: the array it drives (-1 none); node/device: its array
	unit     int16 // node, server or member index
	clientOf int16 // op/node: the server it calls (-1 none)
	parent   int32
	off, n   int64
	start    int64 // ns since the tracer epoch
	began    int64 // device: when service began
	end      int64
}

// arrayInfo describes one striped array: a core store behind a server
// backend, or the cluster volume over its nodes.
type arrayInfo struct {
	geo    layout.Geometry
	linked bool // its calls are recorded, so member calls can find parents
	tier   bool // the backend driving it is a tier.Store
}

type callKey struct {
	server int
	off    int64
}

type stripeKey struct {
	arr    int
	stripe int64
}

type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	arrays []arrayInfo
	calls  map[callKey]int32
	active map[stripeKey][]int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), calls: map[callKey]int32{}, active: map[stripeKey][]int32{}}
}

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) addArray(a arrayInfo) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.arrays = append(t.arrays, a)
	return len(t.arrays) - 1
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin records the start of an op, node or backend span and returns
// its index, or -1 when tracing is off.
func (t *tracer) begin(s span) int32 {
	if !t.enabled() {
		return -1
	}
	s.start = t.ns(time.Now())
	s.parent = -1
	t.mu.Lock()
	defer t.mu.Unlock()
	switch s.kind {
	case kindBackend:
		if p, ok := t.calls[callKey{int(s.unit), s.off}]; ok {
			s.parent = p
		}
	case kindNode:
		s.parent = t.parentLocked(int(s.arr), int(s.unit), s.off, s.n)
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, s)
	if s.clientOf >= 0 {
		t.calls[callKey{int(s.clientOf), s.off}] = idx
	}
	if s.kind != kindNode && s.arr >= 0 && t.arrays[s.arr].linked {
		for _, st := range t.stripes(int(s.arr), s.off, s.n) {
			k := stripeKey{int(s.arr), st}
			t.active[k] = append(t.active[k], idx)
		}
	}
	return idx
}

// end closes a span begun with begin and drops it from the tables.
func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.end = now
	if s.clientOf >= 0 {
		k := callKey{int(s.clientOf), s.off}
		if t.calls[k] == idx {
			delete(t.calls, k)
		}
	}
	if s.kind != kindNode && s.arr >= 0 && t.arrays[s.arr].linked {
		for _, st := range t.stripes(int(s.arr), s.off, s.n) {
			k := stripeKey{int(s.arr), st}
			l := t.active[k]
			for i, v := range l {
				if v == idx {
					l = append(l[:i], l[i+1:]...)
					break
				}
			}
			if len(l) == 0 {
				delete(t.active, k)
			} else {
				t.active[k] = l
			}
		}
	}
}

// device records a finished member I/O.
func (t *tracer) device(arr, member int, write bool, off, n int64, arrive, began, done time.Time, modeled bool) {
	s := span{kind: kindDevice, write: write, modeled: modeled, arr: int16(arr), unit: int16(member),
		clientOf: -1, off: off, n: n, start: t.ns(arrive), began: t.ns(began), end: t.ns(done)}
	t.mu.Lock()
	s.parent = t.parentLocked(arr, member, off, n)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) stripes(arr int, off, n int64) []int64 {
	g := t.arrays[arr].geo
	sdb := g.StripeDataBytes()
	var out []int64
	for st := off / sdb; st*sdb < off+n; st++ {
		out = append(out, st)
	}
	return out
}

// parentLocked finds the in-flight call on arr that a member I/O at
// (member, off) serves: among the calls touching its stripe, the one
// covering the same data bytes, else the oldest.
func (t *tracer) parentLocked(arr, member int, off, n int64) int32 {
	a := t.arrays[arr]
	if !a.linked {
		return -1
	}
	g := a.geo
	st := off / g.StripeUnit
	cands := t.active[stripeKey{arr, st}]
	switch len(cands) {
	case 0:
		return -1
	case 1:
		return cands[0]
	}
	if member < g.Disks {
		if role, idx := g.RoleOf(st, member); role == layout.Data {
			addr := st*g.StripeDataBytes() + int64(idx)*g.StripeUnit + off%g.StripeUnit
			for _, c := range cands {
				p := t.spans[c]
				if addr < p.off+p.n && p.off < addr+n {
					return c
				}
			}
		}
	}
	return cands[0]
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() ([]span, []arrayInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]arrayInfo(nil), t.arrays...)
}

// tracedBackend is the server.Backend wrapper around a store.
type tracedBackend struct {
	server.Backend
	tr     *tracer
	server int
	arr    int
}

func (b *tracedBackend) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	i := b.tr.begin(span{kind: kindBackend, arr: int16(b.arr), unit: int16(b.server), clientOf: -1, off: off, n: int64(len(p))})
	n, err := b.Backend.ReadContext(ctx, p, off)
	b.tr.end(i)
	return n, err
}

func (b *tracedBackend) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	i := b.tr.begin(span{kind: kindBackend, write: true, arr: int16(b.arr), unit: int16(b.server), clientOf: -1, off: off, n: int64(len(p))})
	n, err := b.Backend.WriteContext(ctx, p, off)
	b.tr.end(i)
	return n, err
}

// tracedNode is the cluster.Node wrapper around one node's client.
type tracedNode struct {
	cluster.Node
	tr   *tracer
	node int
	arr  int // the volume's array
}

func (n *tracedNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	i := n.tr.begin(span{kind: kindNode, arr: int16(n.arr), unit: int16(n.node), clientOf: int16(n.node), off: off, n: int64(len(p))})
	c, err := n.Node.ReadAtContext(ctx, p, off)
	n.tr.end(i)
	return c, err
}

func (n *tracedNode) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	i := n.tr.begin(span{kind: kindNode, write: true, arr: int16(n.arr), unit: int16(n.node), clientOf: int16(n.node), off: off, n: int64(len(p))})
	c, err := n.Node.WriteAtContext(ctx, p, off)
	n.tr.end(i)
	return c, err
}

// coverage is the time within [lo, hi) covered by the union of the
// child spans' intervals.
func coverage(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, lo), min(k.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}
