package core

import (
	"time"

	"afraid/internal/obs"
)

// storeObs is the store's observability kit: per-phase latency
// histograms and a trace ring, all registered in one obs.Registry that
// cmd/afraidd serves under the "core" section of /debug/histograms.
// Recording is lock-free, so the instrumentation stays on permanently.
type storeObs struct {
	reg *obs.Registry

	lockWait     *obs.Histogram // stripe-lock acquisition wait, per span
	devRead      *obs.Histogram // device phase of one read span
	devWrite     *obs.Histogram // device phase of one write span
	parity       *obs.Histogram // in-memory parity compute
	scrubStripe  *obs.Histogram // one stripe rebuild (lock wait included)
	scrubEpisode *obs.Histogram // one scrub episode (a run of rebuilds)
	csumVerify   *obs.Histogram // one checksummed unit read (slot I/O + CRC)
	trace        *obs.Ring
}

func newStoreObs() *storeObs {
	r := obs.NewRegistry()
	return &storeObs{
		reg:          r,
		lockWait:     r.Histogram("stripe_lock_wait"),
		devRead:      r.Histogram("device_read"),
		devWrite:     r.Histogram("device_write"),
		parity:       r.Histogram("parity_compute"),
		scrubStripe:  r.Histogram("scrub_stripe"),
		scrubEpisode: r.Histogram("scrub_episode"),
		csumVerify:   r.Histogram("checksum_verify"),
		trace:        r.Ring("ops", 512),
	}
}

// Obs returns the store's observability registry for mounting on a
// debug endpoint.
func (s *Store) Obs() *obs.Registry { return s.ob.reg }

// AppendStats appends the store's STAT entries: its redundancy mode
// and every Stats counter, each under the "core." prefix.
func (s *Store) AppendStats(dst []obs.Field) []obs.Field {
	dst = append(dst, obs.Field{Name: "core.mode", Value: uint64(s.opts.Mode)})
	return obs.AppendFields(dst, "core.", s.Stats())
}

// traceOp records one completed client operation in the trace ring.
func (s *Store) traceOp(op string, off, n int64, start time.Time, lockWait, dev time.Duration, err error) {
	ev := obs.Event{
		Op:    op,
		Off:   off,
		Len:   n,
		Start: start,
		Lock:  lockWait,
		Dev:   dev,
		Total: time.Since(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.ob.trace.Record(ev)
}

// observeParity wraps a parity-compute phase. Kept out of line so the
// call sites in the write and scrub paths stay one line.
func (s *Store) observeParity(start time.Time) {
	s.ob.parity.Observe(time.Since(start))
}
