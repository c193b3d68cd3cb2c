package cluster

import (
	"context"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/layout"
	"afraid/internal/obs"
)

// Hedged reads are the volume's tail-latency defence: a unit read that
// has not answered after the hedge delay is raced against the
// reconstruction path (the same XOR of survivors + parity that serves
// degraded reads), and the first success wins. A browned-out node then
// costs one hedge delay, not its own latency — without being demoted,
// because the straggling primary keeps running to its NodeTimeout and
// only *that* declares the node down. Hedging never fires on a stripe
// that is not fully redundant: reconstruction there would either be
// impossible or double-read the degraded path.

const (
	// hedgeAutoDefault is the auto-mode delay before enough node reads
	// exist to derive a p99 (millisecond scale: network volumes live
	// there, and local test nodes answer far below it).
	hedgeAutoDefault = 2 * time.Millisecond
	// hedgeAutoFloor keeps the derived delay from collapsing to the
	// bucket floor on very fast nodes, where a hedge would fire on
	// nearly every read and double the cluster's read load.
	hedgeAutoFloor = 500 * time.Microsecond
	// hedgeMinSamples gates auto mode on real signal.
	hedgeMinSamples = 64
	// hedgeEvalEvery bounds how often auto mode re-merges the per-node
	// read histograms; between evaluations the cached delay is served.
	hedgeEvalEvery = 250 * time.Millisecond
)

// hedgeDelay resolves the current hedge delay: Options.HedgeDelay when
// fixed, 0 when disabled, otherwise the cached p99 of node reads
// clamped to [hedgeAutoFloor, NodeTimeout/2].
func (v *Volume) hedgeDelay() time.Duration {
	if hd := v.opts.HedgeDelay; hd != 0 {
		if hd < 0 {
			return 0
		}
		return hd
	}
	now := time.Now().UnixNano()
	if at := v.hedgeEval.Load(); at != 0 && now-at < int64(hedgeEvalEvery) {
		return time.Duration(v.hedgeNS.Load())
	}
	var s obs.Snapshot
	for _, h := range v.ob.nodeRead {
		snap := h.Snapshot()
		s.Merge(&snap)
	}
	d := hedgeAutoDefault
	if s.Count >= hedgeMinSamples {
		d = s.Quantile(0.99)
		if d < hedgeAutoFloor {
			d = hedgeAutoFloor
		}
	}
	if v.opts.NodeTimeout > 0 && d > v.opts.NodeTimeout/2 {
		d = v.opts.NodeTimeout / 2
	}
	v.hedgeNS.Store(int64(d))
	v.hedgeEval.Store(now)
	return d
}

// hedgedReadExtent reads one extent from its home node, arming a hedge
// timer: if the node has not answered when it fires, the extent is also
// reconstructed from the other nodes and the first success is copied to
// dst. Caller holds the stripe lock and has verified the stripe is
// fully redundant.
//
// Each branch reads into its own pooled buffer — never dst — so a late
// loser cannot scribble over the winner's bytes. A primary that fails
// fast (node crash) before the timer fires returns its error directly:
// the demotion it caused re-routes the span, which is the retry layer's
// job, not the hedge's.
func (v *Volume) hedgedReadExtent(ctx context.Context, dst []byte, st int64, e layout.Extent, delay time.Duration) error {
	type res struct {
		buf   []byte
		err   error
		hedge bool
	}
	ch := make(chan res, 2) // both branches always deliver; sends never block
	inflight := 1
	pbuf := bufpool.Get(int(e.Len))
	go func() {
		err := v.nodeRead(ctx, e.Disk, pbuf, e.DiskOff)
		ch <- res{pbuf, err, false}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C

	finish := func(r res) {
		copy(dst, r.buf)
		bufpool.Put(r.buf)
		if remaining := inflight; remaining > 0 {
			// Drain the straggler in the background so its buffer is
			// returned to the pool whenever it finally answers.
			go func() {
				for i := 0; i < remaining; i++ {
					lr := <-ch
					bufpool.Put(lr.buf)
				}
			}()
		}
	}

	var primaryErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				finish(r)
				if r.hedge {
					v.meta.Lock()
					v.stats.HedgeWins++
					v.meta.Unlock()
				}
				return nil
			}
			bufpool.Put(r.buf)
			if !r.hedge {
				if timerC != nil {
					// Failed fast, before the hedge fired.
					return r.err
				}
				primaryErr = r.err
			}
			if inflight == 0 {
				if primaryErr != nil {
					return primaryErr
				}
				return r.err
			}
		case <-timerC:
			timerC = nil
			hbuf := bufpool.Get(int(e.Len))
			inflight++
			go func() {
				err := v.degradedReadExtent(ctx, hbuf, st, e)
				ch <- res{hbuf, err, true}
			}()
			v.meta.Lock()
			v.stats.HedgedReads++
			v.meta.Unlock()
		}
	}
}
