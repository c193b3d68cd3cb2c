package core

import (
	"sync"
)

// stripeBuf is the per-operation scratch arena: one data-unit buffer per
// data disk, P and Q parity buffers, a gather slice for assembling
// variadic survivor lists without allocating, and the member-I/O batch
// (request slots + WaitGroup) that fanOut issues. Buffers are recycled
// through the store's sync.Pool, so steady-state scrubbing, parity
// points, degraded reads, and read-modify-writes allocate nothing.
//
// Unit buffers come back with arbitrary contents; every user either
// fills them from disk, reconstructs into them (a full overwrite), or
// explicitly zeroes them (the unrecoverable-stripe repair path).
type stripeBuf struct {
	units  [][]byte // data units, indexed by data index within the stripe
	p, q   []byte   // parity scratch (see parityBuf)
	gather [][]byte // scratch for survivor/operand lists
	ios    []ioReq  // member I/Os queued for the next fanOut
	wg     sync.WaitGroup
}

// getStripeBuf returns a stripe arena sized for the store's geometry.
func (s *Store) getStripeBuf() *stripeBuf {
	if v := s.sbPool.Get(); v != nil {
		return v.(*stripeBuf)
	}
	dd := s.geo.DataDisks()
	unit := s.geo.StripeUnit
	sb := &stripeBuf{
		units:  make([][]byte, dd),
		p:      make([]byte, unit),
		q:      make([]byte, unit),
		gather: make([][]byte, 0, dd+1),
		ios:    make([]ioReq, 0, s.geo.Disks),
	}
	for i := range sb.units {
		sb.units[i] = make([]byte, unit)
	}
	return sb
}

// putStripeBuf recycles an arena. The caller must not touch it after.
func (s *Store) putStripeBuf(sb *stripeBuf) {
	sb.gather = sb.gather[:0]
	clear(sb.ios) // a batch abandoned before its fanOut
	sb.ios = sb.ios[:0]
	s.sbPool.Put(sb)
}

// ioReq is one member I/O in a fanOut batch. The result lands in err,
// made visible to the waiter by the batch WaitGroup's happens-before
// edge.
type ioReq struct {
	write bool
	disk  int
	buf   []byte
	off   int64
	err   error
	wg    *sync.WaitGroup
}

// doIO performs the request on the calling goroutine.
func (s *Store) doIO(r *ioReq) error {
	if r.write {
		return s.devWrite(r.disk, r.buf, r.off)
	}
	return s.devRead(r.disk, r.buf, r.off)
}

// ioWorker serves fanned-out member reads and writes until the store
// stops. It counts itself idle again before signalling completion, so a
// caller that wakes from the batch and immediately fans out its next
// step (an RMW's writes after its reads) finds the worker free.
func (s *Store) ioWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case r := <-s.ioCh:
			r.err = s.doIO(r)
			wg := r.wg
			s.ioIdle.Add(1)
			wg.Done()
		}
	}
}

// devAsync hands a member I/O to an idle I/O worker, or performs it
// inline when none is idle (including after Close). Claiming an idle
// worker is non-blocking, and the send that follows waits only for that
// worker to reach its receive — so a request is either picked up by a
// worker or executed by the caller, never parked behind busy workers.
// This keeps the fan-out work-conserving and deadlock-free by
// construction, and makes the overlap deterministic: a worker between
// requests (not yet back at its receive) still counts as idle, so a
// bare non-blocking send would miss it and serialize the batch.
func (s *Store) devAsync(r *ioReq) {
	r.wg.Add(1)
	if s.ioIdle.Add(-1) >= 0 {
		select {
		case s.ioCh <- r:
			return
		case <-s.stop:
		}
	}
	s.ioIdle.Add(1)
	r.err = s.doIO(r)
	r.wg.Done()
}

// queueRead and queueWrite add a member I/O to sb's next fanOut.
func (sb *stripeBuf) queueRead(disk int, buf []byte, off int64) {
	sb.ios = append(sb.ios, ioReq{disk: disk, buf: buf, off: off, wg: &sb.wg})
}

func (sb *stripeBuf) queueWrite(disk int, buf []byte, off int64) {
	sb.ios = append(sb.ios, ioReq{write: true, disk: disk, buf: buf, off: off, wg: &sb.wg})
}

// fanOut issues every queued member I/O at once and waits for all of
// them. The I/Os target distinct disks, so they overlap: all but the
// last go to the I/O workers, and the last runs on the calling
// goroutine so it contributes instead of blocking. Every I/O runs to
// completion even when another fails, so on error any subset of a
// write batch may have landed — the span retry loops repair from that
// (see resyncParity). Returns the first error in queue order; the queue
// is empty again on return.
func (s *Store) fanOut(sb *stripeBuf) error {
	ios := sb.ios
	n := len(ios)
	if n == 0 {
		return nil
	}
	for i := range ios[:n-1] {
		s.devAsync(&ios[i])
	}
	ios[n-1].err = s.doIO(&ios[n-1])
	sb.wg.Wait()
	var first error
	for i := range ios {
		if first == nil {
			first = ios[i].err
		}
		ios[i] = ioReq{} // drop buffer references before pooling
	}
	sb.ios = ios[:0]
	return first
}

// queueStripeUnits queues reads filling sb.units[i] from the stripe's
// data disks, in data-index order.
func (s *Store) queueStripeUnits(sb *stripeBuf, stripe int64) {
	off := s.geo.DiskOffset(stripe)
	for i := range sb.units {
		sb.queueRead(s.geo.DataDisk(stripe, i), sb.units[i], off)
	}
}

// readStripeUnits reads the stripe's data units in one fan-out,
// returning the first error in data-index order.
func (s *Store) readStripeUnits(sb *stripeBuf, stripe int64) error {
	s.queueStripeUnits(sb, stripe)
	return s.fanOut(sb)
}

// survivors gathers the byte range [lo, hi) of sb.units, excluding data
// index skip, into sb.gather.
func (sb *stripeBuf) survivors(skip int, lo, hi int64) [][]byte {
	sb.gather = sb.gather[:0]
	for i, u := range sb.units {
		if i != skip {
			sb.gather = append(sb.gather, u[lo:hi])
		}
	}
	return sb.gather
}
