package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
)

// model is the member-disk model: one I/O at a time, in arrival order,
// each taking a fixed positioning time plus its transfer at a fixed
// bandwidth.
type model struct {
	position  time.Duration
	bandwidth float64 // bytes per second
}

// diskModel is the model behind every modeled member. The positioning
// time sits well above the host's ~1 ms sleep floor, so the disks, not
// memcpy, separate AFRAID from RAID 5.
var diskModel = model{position: 2 * time.Millisecond, bandwidth: 100e6}

func (m model) service(n int) time.Duration {
	return m.position + time.Duration(float64(n)/m.bandwidth*float64(time.Second))
}

// ratioBins is the resolution of the achieved/model service-time
// histogram: 1% bins from 0 to 4, the last also counting anything above.
const ratioBins = 400

// devStats are a device's running totals. The modeled fields (busy,
// achieved, ratio) stay zero on unmodeled devices.
type devStats struct {
	ops, writeBytes int64
	busy            time.Duration // modeled service time of completed ops
	achieved        time.Duration // measured completion minus measured start
	ratio           [ratioBins]int64
}

// add returns a + sign×b.
func (a devStats) add(b devStats, sign int64) devStats {
	a.ops += sign * b.ops
	a.writeBytes += sign * b.writeBytes
	a.busy += time.Duration(sign) * b.busy
	a.achieved += time.Duration(sign) * b.achieved
	for i := range a.ratio {
		a.ratio[i] += sign * b.ratio[i]
	}
	return a
}

// devReq is one queued device I/O.
type devReq struct {
	p      []byte
	off    int64
	write  bool
	arrive time.Time
	n      int
	err    error
	done   chan struct{}
}

var reqPool = sync.Pool{New: func() any { return &devReq{done: make(chan struct{}, 1)} }}

// device wraps one in-memory member. A modeled device serves its queue
// from a single goroutine that sleeps out each service time; completion
// deadlines are chained (each starts at the later of its arrival and
// the previous deadline), so wakeup overshoot does not accumulate
// across a busy period. An unmodeled device (the tier's front mirrors)
// transfers immediately and is only counted and traced.
type device struct {
	inner   *core.MemDevice
	modeled bool
	fast    atomic.Bool // skip the model: set after measuring, for verification
	tr      *tracer
	arr     int // tracer array this device is a member of
	member  int

	q    chan *devReq
	stop sync.WaitGroup
	slp  *sleeper

	mu sync.Mutex
	st devStats
}

// queueDepth bounds the requests waiting on one modeled device; it only
// needs to exceed the I/Os the stores can have in flight at once.
const queueDepth = 4096

func newDevice(size int64, modeled bool, tr *tracer, arr, member int) (*device, error) {
	d := &device{inner: core.NewMemDevice(size), modeled: modeled, tr: tr, arr: arr, member: member}
	if !modeled {
		return d, nil
	}
	slp, err := newSleeper()
	if err != nil {
		return nil, err
	}
	d.slp = slp
	d.q = make(chan *devReq, queueDepth)
	d.stop.Add(1)
	go d.serve()
	return d, nil
}

func (d *device) serve() {
	defer d.stop.Done()
	var deadline, lastDone time.Time
	for r := range d.q {
		if d.fast.Load() {
			r.n, r.err = d.transfer(r.p, r.off, r.write)
			r.done <- struct{}{}
			continue
		}
		svc := diskModel.service(len(r.p))
		start := r.arrive
		if deadline.After(start) {
			start = deadline
		}
		deadline = start.Add(svc)
		if r.err = d.slp.sleep(time.Until(deadline)); r.err == nil {
			r.n, r.err = d.transfer(r.p, r.off, r.write)
		}
		now := time.Now()
		began := r.arrive
		if lastDone.After(began) {
			began = lastDone
		}
		lastDone = now
		d.account(r.write, len(r.p), svc, now.Sub(began))
		if d.tr.enabled() {
			d.tr.device(d.arr, d.member, r.write, r.off, int64(len(r.p)), r.arrive, began, now, true)
		}
		r.done <- struct{}{}
	}
}

func (d *device) transfer(p []byte, off int64, write bool) (int, error) {
	if write {
		return d.inner.WriteAt(p, off)
	}
	return d.inner.ReadAt(p, off)
}

func (d *device) account(write bool, n int, svc, achieved time.Duration) {
	d.mu.Lock()
	d.st.ops++
	if write {
		d.st.writeBytes += int64(n)
	}
	d.st.busy += svc
	d.st.achieved += achieved
	if svc > 0 {
		d.st.ratio[min(ratioBins-1, int(100*achieved/svc))]++
	}
	d.mu.Unlock()
}

func (d *device) stats() devStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st
}

func (d *device) io(p []byte, off int64, write bool) (int, error) {
	if !d.modeled {
		t0 := time.Now()
		n, err := d.transfer(p, off, write)
		d.account(write, len(p), 0, 0)
		if d.tr.enabled() {
			d.tr.device(d.arr, d.member, write, off, int64(len(p)), t0, t0, time.Now(), false)
		}
		return n, err
	}
	r := reqPool.Get().(*devReq)
	r.p, r.off, r.write, r.arrive, r.n, r.err = p, off, write, time.Now(), 0, nil
	d.q <- r
	<-r.done
	n, err := r.n, r.err
	r.p = nil
	reqPool.Put(r)
	return n, err
}

func (d *device) ReadAt(p []byte, off int64) (int, error)  { return d.io(p, off, false) }
func (d *device) WriteAt(p []byte, off int64) (int, error) { return d.io(p, off, true) }
func (d *device) Size() int64                              { return d.inner.Size() }

// Close is a no-op: stores close their members, but the benchmark still
// owns the device until shutdown.
func (d *device) Close() error { return nil }

func (d *device) shutdown() {
	if d.modeled {
		close(d.q)
		d.stop.Wait()
		d.slp.close()
	}
}

// modelCheck compares the service times modeled devices achieved with
// the model: the means over all ops, and the median of each op's
// achieved/model ratio. A device that does not keep to its model (a
// sleep that overshoots, a host too busy to wake it) makes every latency
// figure meaningless, so the run fails when the median ratio strays.
// The mean is reported but not judged: a few host stalls of several
// milliseconds move it, and the latency tails record them anyway.
func modelCheck(st devStats) (achievedMs, modelMs, medianRatio float64, err error) {
	if st.ops == 0 {
		return 0, 0, 0, nil
	}
	achievedMs = ms(st.achieved) / float64(st.ops)
	modelMs = ms(st.busy) / float64(st.ops)
	var seen int64
	for i, n := range st.ratio {
		if seen += n; 2*seen >= st.ops {
			medianRatio = (float64(i) + 0.5) / 100
			break
		}
	}
	if dev := medianRatio - 1; dev > modelTolerance || dev < -modelTolerance {
		err = fmt.Errorf("device model out of tolerance: median achieved/model service time %.3f (±%.0f%%)", medianRatio, modelTolerance*100)
	}
	return achievedMs, modelMs, medianRatio, err
}

// modelTolerance is how far the median achieved/model service-time
// ratio may stray from 1 before a run is refused.
const modelTolerance = 0.15

// sleepFloor measures the host's shortest time.Sleep and its timerfd
// equivalent: the median wall time of a 50 µs request, in ms.
func sleepFloor() (sleepMs, timerfdMs float64, err error) {
	const n = 41
	slp, err := newSleeper()
	if err != nil {
		return 0, 0, err
	}
	defer slp.close()
	a, b := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		a[i] = ms(time.Since(t))
		t = time.Now()
		if err := slp.sleep(50 * time.Microsecond); err != nil {
			return 0, 0, err
		}
		b[i] = ms(time.Since(t))
	}
	return quantile(a, 0.5), quantile(b, 0.5), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
