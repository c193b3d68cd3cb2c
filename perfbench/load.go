package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one request.
type result struct {
	lat    time.Duration // open loop: from due time; closed loop: from send
	late   time.Duration // open loop: how late the generator handed it out
	done   bool
	failed bool
}

// runner drives one system with one schedule and checks every read
// against a shadow of the last acknowledged write to each block.
type runner struct {
	sys     *system
	sh      shape
	issuers int // request-issuing goroutines
	reqs    []request
	res     []result
	tr      *tracer

	gateMu sync.Mutex
	gate   *sync.Cond
	busy   []bool // block has a request in flight
	shadow []int64

	errMu sync.Mutex
	err   error // first verification failure
}

func newRunner(sys *system, sh shape, issuers int, reqs []request, tr *tracer) *runner {
	rn := &runner{sys: sys, sh: sh, issuers: issuers, reqs: reqs, res: make([]result, len(reqs)), tr: tr,
		busy: make([]bool, sh.blocks), shadow: make([]int64, sh.blocks)}
	rn.gate = sync.NewCond(&rn.gateMu)
	for i := range rn.shadow {
		rn.shadow[i] = neverWritten
	}
	return rn
}

func (rn *runner) fail(err error) {
	rn.errMu.Lock()
	if rn.err == nil {
		rn.err = err
	}
	rn.errMu.Unlock()
}

func (rn *runner) firstErr() error {
	rn.errMu.Lock()
	defer rn.errMu.Unlock()
	return rn.err
}

func (rn *runner) acquire(b int64) {
	rn.gateMu.Lock()
	for rn.busy[b] {
		rn.gate.Wait()
	}
	rn.busy[b] = true
	rn.gateMu.Unlock()
}

func (rn *runner) release(b int64) {
	rn.gateMu.Lock()
	rn.busy[b] = false
	rn.gateMu.Unlock()
	rn.gate.Broadcast()
}

// stamp fills p with the block's (offset, sequence) stamp, repeated.
func stamp(p []byte, off, seq int64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(off))
	binary.LittleEndian.PutUint64(p[8:], uint64(seq))
	for n := 16; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// buffers is one issuer's scratch space.
type buffers struct{ data, want []byte }

func (rn *runner) newBuffers() *buffers {
	return &buffers{data: make([]byte, rn.sh.blockSize), want: make([]byte, rn.sh.blockSize)}
}

// Shadow entries below zero: never written (the block reads as zeros),
// or written by a request that failed (its contents are unknown).
const (
	neverWritten = -1
	unknown      = -2
)

// check compares a block read back with the shadow.
func (rn *runner) check(b int64, got []byte, want []byte) error {
	off := b * rn.sh.blockSize
	switch seq := rn.shadow[b]; seq {
	case unknown:
		return nil
	case neverWritten:
		clear(want)
	default:
		stamp(want, off, seq)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("block at %d: read does not match the last acknowledged write (seq %d)", off, rn.shadow[b])
	}
	return nil
}

// do issues request i and records its result. from is the time its
// latency counts from.
func (rn *runner) do(i, issuer int, from time.Time, buf *buffers) {
	q := rn.reqs[i]
	rn.acquire(q.block)
	defer rn.release(q.block)
	off := q.block * rn.sh.blockSize
	if q.write {
		stamp(buf.data, off, int64(i))
	}
	sp := rn.tr.begin(span{kind: kindOp, write: q.write, arr: rn.sys.opArr, clientOf: rn.sys.opServer, off: off, n: rn.sh.blockSize})
	var err error
	if q.write {
		err = rn.sys.write(context.Background(), issuer, buf.data, off)
	} else {
		err = rn.sys.read(context.Background(), issuer, buf.data, off)
	}
	rn.tr.end(sp)
	r := &rn.res[i]
	r.lat = time.Since(from)
	r.done = true
	switch {
	case err != nil:
		r.failed = true
		if q.write {
			rn.shadow[q.block] = unknown
		}
	case q.write:
		rn.shadow[q.block] = int64(i)
	default:
		if cerr := rn.check(q.block, buf.data, buf.want); cerr != nil {
			rn.fail(cerr)
		}
	}
}

// openLoop sends requests [from, to) at t0 plus their due times, from
// the system's pool of issuers, and returns once all have completed.
func (rn *runner) openLoop(t0 time.Time, from, to int) error {
	slp, err := newSleeper()
	if err != nil {
		return err
	}
	defer slp.close()
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < rn.issuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := rn.newBuffers()
			for i := range work {
				due := t0.Add(rn.reqs[i].due)
				rn.res[i].late = time.Since(due)
				rn.do(i, g, due, buf)
			}
		}(g)
	}
	for i := from; i < to; i++ {
		if err = slp.sleep(time.Until(t0.Add(rn.reqs[i].due))); err != nil {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return err
}

// closedLoop has each issuer send the next request of the stream as
// soon as its previous one completes, from start until request end or
// time stop, and returns the index after the last request taken.
func (rn *runner) closedLoop(start, end int, stop time.Time) int {
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for g := 0; g < rn.issuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := rn.newBuffers()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= end {
					return
				}
				rn.do(i, g, time.Now(), buf)
			}
		}(g)
	}
	wg.Wait()
	return min(int(next.Load()), end)
}

// verifyAll flushes the system, reads back every block ever written and
// requires clean parity. It runs after measuring, with the disk model
// switched off, since only the bytes matter here.
func (rn *runner) verifyAll(ctx context.Context) error {
	for _, d := range rn.sys.devs {
		d.fast.Store(true)
	}
	if err := rn.sys.flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	blocks := make(chan int64)
	var wg sync.WaitGroup
	for g := 0; g < min(rn.issuers, 64); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := rn.newBuffers()
			for b := range blocks {
				if err := rn.sys.read(ctx, g, buf.data, b*rn.sh.blockSize); err != nil {
					rn.fail(fmt.Errorf("read back block at %d: %w", b*rn.sh.blockSize, err))
					continue
				}
				if err := rn.check(b, buf.data, buf.want); err != nil {
					rn.fail(fmt.Errorf("after flush: %w", err))
				}
			}
		}(g)
	}
	for b, seq := range rn.shadow {
		if seq != neverWritten {
			blocks <- int64(b)
		}
	}
	close(blocks)
	wg.Wait()
	if err := rn.firstErr(); err != nil {
		return err
	}
	return rn.sys.checkParity(ctx)
}
