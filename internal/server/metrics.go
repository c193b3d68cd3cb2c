package server

import (
	"expvar"
	"fmt"
	"net/http"
	"time"

	"afraid/internal/obs"
)

// Metrics counts server activity as expvar vars and records request
// latencies in lock-free obs histograms. The vars live in a per-server
// expvar.Map rather than the process-global registry so multiple
// servers (tests, benchmarks) don't collide; Publish exports the map
// globally for /debug/vars, and Handler serves it directly. The
// histogram registry is mounted separately (obs.HistogramHandler) as
// the "server" section of /debug/histograms.
type Metrics struct {
	vars *expvar.Map

	// Per-op request counters (one frame = one request, even when the
	// server coalesces adjacent writes into a single store call).
	requests *expvar.Map
	// Per-status response counters.
	responses *expvar.Map

	ConnsOpen       expvar.Int
	ConnsTotal      expvar.Int
	Inflight        expvar.Int
	BusyRejected    expvar.Int
	CoalescedWrites expvar.Int
	BytesRead       expvar.Int
	BytesWritten    expvar.Int
	// WriteTimeouts counts connections dropped because a response write
	// missed its deadline: the client stopped reading.
	WriteTimeouts expvar.Int

	reg       *obs.Registry
	opLat     [OpScrub + 1]*obs.Histogram // end-to-end latency per op
	queueWait *obs.Histogram              // dispatch -> worker pickup
	service   *obs.Histogram              // worker pickup -> completion
	trace     *obs.Ring
}

// newMetrics builds the metric tree; dirty reports the store's current
// unredundant-stripe count.
func newMetrics(dirty func() int64) *Metrics {
	m := &Metrics{
		vars:      new(expvar.Map).Init(),
		requests:  new(expvar.Map).Init(),
		responses: new(expvar.Map).Init(),
		reg:       obs.NewRegistry(),
	}
	for op := OpRead; op <= OpScrub; op++ {
		m.opLat[op] = m.reg.Histogram(op.String())
	}
	m.queueWait = m.reg.Histogram("queue_wait")
	m.service = m.reg.Histogram("service_time")
	m.trace = m.reg.Ring("requests", 1024)
	m.vars.Set("requests", m.requests)
	m.vars.Set("responses", m.responses)
	m.vars.Set("conns_open", &m.ConnsOpen)
	m.vars.Set("conns_total", &m.ConnsTotal)
	m.vars.Set("inflight", &m.Inflight)
	m.vars.Set("busy_rejected", &m.BusyRejected)
	m.vars.Set("coalesced_writes", &m.CoalescedWrites)
	m.vars.Set("bytes_read", &m.BytesRead)
	m.vars.Set("bytes_written", &m.BytesWritten)
	m.vars.Set("write_timeouts", &m.WriteTimeouts)
	m.vars.Set("read_latency_us", expvar.Func(func() any { return m.opLat[OpRead].Summary() }))
	m.vars.Set("write_latency_us", expvar.Func(func() any { return m.opLat[OpWrite].Summary() }))
	m.vars.Set("queue_wait_us", expvar.Func(func() any { return m.queueWait.Summary() }))
	m.vars.Set("dirty_stripes", expvar.Func(func() any { return dirty() }))
	return m
}

// request counts one received frame.
func (m *Metrics) request(op Op, n int64) { m.requests.Add(op.String(), n) }

// response counts one completed frame and records its end-to-end
// latency.
func (m *Metrics) response(op Op, st Status, d time.Duration) {
	m.responses.Add(st.String(), 1)
	if h := m.hist(op); h != nil {
		h.Observe(d)
	}
}

// task records timing for one executed store call (which may have
// completed several coalesced frames): the queue-wait/service-time
// split and a trace-ring event.
func (m *Metrics) task(r *Request, st Status, queued, total time.Duration) {
	m.queueWait.Observe(queued)
	m.service.Observe(total - queued)
	n := int64(r.Length)
	if r.Op == OpWrite {
		n = int64(len(r.Data))
	}
	ev := obs.Event{
		Op:    r.Op.String(),
		Off:   r.Off,
		Len:   n,
		Start: time.Now().Add(-total),
		Queue: queued,
		Total: total,
	}
	if st != StatusOK {
		ev.Err = st.String()
	}
	m.trace.Record(ev)
}

// hist returns the latency histogram for one op, nil for unknown ops.
func (m *Metrics) hist(op Op) *obs.Histogram {
	if op.valid() {
		return m.opLat[op]
	}
	return nil
}

// Obs returns the server's histogram/trace registry for mounting on a
// debug endpoint.
func (m *Metrics) Obs() *obs.Registry { return m.reg }

// OpLatency snapshots the end-to-end latency histogram for one op.
func (m *Metrics) OpLatency(op Op) obs.Snapshot {
	if h := m.hist(op); h != nil {
		return h.Snapshot()
	}
	return obs.Snapshot{}
}

// Requests returns the request counter for one op.
func (m *Metrics) Requests(op Op) int64 {
	if v, ok := m.requests.Get(op.String()).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// Responses returns the response counter for one status.
func (m *Metrics) Responses(st Status) int64 {
	if v, ok := m.responses.Get(st.String()).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// WriteLatencyP95 returns the p95 end-to-end WRITE latency.
func (m *Metrics) WriteLatencyP95() time.Duration {
	s := m.opLat[OpWrite].Snapshot()
	return s.Quantile(0.95)
}

// Publish registers the metric tree in the process-global expvar
// registry under name, making it visible on expvar.Handler
// (/debug/vars). Publishing the same name twice panics (expvar
// semantics), so daemons should call it once.
func (m *Metrics) Publish(name string) { expvar.Publish(name, m.vars) }

// Handler serves the metric tree as JSON.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, m.vars.String())
	})
}

// String returns the metric tree as JSON (expvar.Var).
func (m *Metrics) String() string { return m.vars.String() }
