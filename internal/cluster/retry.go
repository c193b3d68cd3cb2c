package cluster

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// retrySpan runs one span attempt under its stripe lock, retrying while
// the failure is a node demotion (ErrNodeDown). A demotion changes the
// routing — the next attempt reads degraded or writes under the
// synchronous protocol — so the first retry is immediate; later retries
// back off exponentially with jitter, because repeated ErrNodeDown
// inside one span means the cluster is churning (a redial raced a
// failure, a second node is going) and hammering it helps nobody. The
// budget bounds the spin the old bare loop allowed.
func (v *Volume) retrySpan(ctx context.Context, fn func() error) error {
	budget := v.opts.RetryBudget
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !errors.Is(err, ErrNodeDown) {
			return err
		}
		if budget < 0 {
			return err
		}
		if attempt >= budget {
			v.meta.Lock()
			v.stats.RetriesExhausted++
			v.meta.Unlock()
			return err
		}
		v.meta.Lock()
		v.stats.Retries++
		v.meta.Unlock()
		if attempt == 0 {
			continue
		}
		d := v.backoff(attempt)
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-v.stop:
			t.Stop()
			return ErrClosed
		case <-t.C:
		}
	}
}

// backoff returns the sleep before retry `attempt` (attempt >= 1):
// RetryBase doubling per attempt, capped at RetryMaxBackoff, with equal
// jitter (half fixed, half uniform) so concurrent spans retrying after
// the same demotion do not stampede in phase.
func (v *Volume) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 20 {
		shift = 20 // past here the cap below always wins
	}
	d := v.opts.RetryBase << shift
	if d > v.opts.RetryMaxBackoff || d <= 0 {
		d = v.opts.RetryMaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
