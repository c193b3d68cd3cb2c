package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"afraid/internal/avail"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are the JSON metrics of an untraced run: those that
// every workload has, that are never zero and that repeat across runs
// on a shared host. The tails, CPU time, the exposure metrics,
// ops_per_s and failed_frac are printed in the table above the JSON
// line (README.md says why each is left out of it).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB/op"},
}

// perLayerMetrics are the JSON metrics of a traced run. A layer a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"server.wait_ms_p50", "ms"},
	{"server.wait_ms_p99", "ms"},
	{"server.backend_calls_per_op", "calls/op"},
	{"core.write_ms_p50", "ms"},
	{"core.write_ms_p99", "ms"},
	{"core.self_ms_p50", "ms"},
	{"core.device_ops_per_write", "ops/write"},
	{"core.nvram_persists_per_write", "count/write"},
	{"core.scrub_stripes_per_s", "1/s"},
	{"core.scrub_preempt_frac", "fraction"},
	{"core.dirty_high_water", "stripes"},
	{"tier.read_ms_p50", "ms"},
	{"tier.read_ms_p99", "ms"},
	{"tier.write_ms_p50", "ms"},
	{"tier.front_read_hit_frac", "fraction"},
	{"tier.front_write_hit_frac", "fraction"},
	{"tier.promotes_per_op", "count/op"},
	{"tier.demotes_per_op", "count/op"},
	{"tier.back_device_ops_per_op", "ops/op"},
	{"cluster.read_ms_p50", "ms"},
	{"cluster.write_ms_p50", "ms"},
	{"cluster.self_ms_p50", "ms"},
	{"cluster.node_calls_per_op", "calls/op"},
	{"cluster.node_ms_p50", "ms"},
	{"cluster.node_ms_p99", "ms"},
	{"cluster.hedge_frac", "fraction"},
	{"cluster.hedge_win_frac", "fraction"},
	{"cluster.inline_drains_per_write", "count/write"},
	{"cluster.drain_stripes_per_s", "1/s"},
	{"device.busy_frac", "fraction"},
	{"device.queue_ms_p50", "ms"},
	{"device.queue_ms_p99", "ms"},
	{"device.ops_per_op", "ops/op"},
	{"device.background_frac", "fraction"},
	{"device.write_bytes_per_user_byte", "B/B"},
	{"device.svc_ms_mean", "ms"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.sleep_floor_ms", "ms"},
}

// quantile returns the q-quantile of v (nearest rank), 0 when empty.
// v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// window is one measured stretch of a run.
type window struct {
	rn       *runner
	from, to int // requests sent in it
	t0, t1   time.Time
	cpu      time.Duration
	alloc    uint64
	c0, c1   counters
	dev      devStats // modeled members
	front    devStats // unmodeled tier front devices
	expo     *exposure
	spans    []span
	arrays   []arrayInfo
	spanFrom int
}

func startWindow(rn *runner, from int) *window {
	w := &window{rn: rn, from: from, c0: rn.sys.counters()}
	w.dev = rn.sys.devStats(rn.sys.devs)
	w.front = rn.sys.devStats(rn.sys.front)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc
	rn.tr.mu.Lock()
	w.spanFrom = len(rn.tr.spans)
	rn.tr.mu.Unlock()
	w.expo = startExposure(rn.sys.dirty)
	w.cpu = cpuTime()
	w.t0 = time.Now()
	return w
}

func (w *window) finish(to int) {
	w.t1 = time.Now()
	w.cpu = cpuTime() - w.cpu
	w.expo.stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - w.alloc
	w.to = to
	w.c1 = w.rn.sys.counters()
	w.dev = w.rn.sys.devStats(w.rn.sys.devs).add(w.dev, -1)
	w.front = w.rn.sys.devStats(w.rn.sys.front).add(w.front, -1)
	spans, arrays := w.rn.tr.snapshot()
	w.spans, w.arrays = spans[w.spanFrom:], arrays
}

func (w *window) seconds() float64 { return w.t1.Sub(w.t0).Seconds() }

func (w *window) failed() int {
	n := 0
	for _, r := range w.rn.res[w.from:w.to] {
		if r.failed || !r.done {
			n++
		}
	}
	return n
}

// latencies returns the completed, successful latencies in ms of
// requests [from, to).
func (w *window) latencies(from, to int, write bool) []float64 {
	var v []float64
	for i := from; i < to; i++ {
		if r := w.rn.res[i]; r.done && !r.failed && w.rn.reqs[i].write == write {
			v = append(v, ms(r.lat))
		}
	}
	return v
}

// Percentiles are taken per slice of consecutive requests, and the
// metric is the median over the slices. A host stall, or a burst whose
// random blocks happen to pile onto one disk, then moves one slice, not
// the run. Medians use one slice per ON/OFF cycle of a 20-second run;
// the 99th percentile needs more samples per slice.
const (
	medianSlices = 20
	tailSlices   = 5
)

// sliced is the median over the window's slices of each slice's
// q-quantile latency, in ms.
func (w *window) sliced(write bool, q float64, slices int) float64 {
	v := make([]float64, 0, slices)
	n := w.to - w.from
	for k := 0; k < slices; k++ {
		if l := w.latencies(w.from+k*n/slices, w.from+(k+1)*n/slices, write); len(l) > 0 {
			v = append(v, quantile(l, q))
		}
	}
	return quantile(v, 0.5)
}

// lateness is the q-quantile of how late the generator handed out the
// window's requests, in ms.
func (w *window) lateness(q float64) float64 {
	v := make([]float64, 0, w.to-w.from)
	for _, r := range w.rn.res[w.from:w.to] {
		v = append(v, ms(r.late))
	}
	return quantile(v, q)
}

func (w *window) ops() int { return w.to - w.from - w.failed() }

func (w *window) userWriteBytes() float64 {
	n := 0
	for i, r := range w.rn.res[w.from:w.to] {
		if r.done && !r.failed && w.rn.reqs[w.from+i].write {
			n++
		}
	}
	return float64(n) * float64(w.rn.sh.blockSize)
}

// endToEnd computes every end-to-end metric of the window, including
// those only printed.
func (w *window) endToEnd(setup float64) map[string]value {
	ops := float64(max(1, w.ops()))
	total := float64(max(1, w.to-w.from))
	return map[string]value{
		"setup_s":          {setup, "s"},
		"write_p50_ms":     {w.sliced(true, 0.50, medianSlices), "ms"},
		"write_p99_ms":     {w.sliced(true, 0.99, tailSlices), "ms"},
		"read_p50_ms":      {w.sliced(false, 0.50, medianSlices), "ms"},
		"read_p99_ms":      {w.sliced(false, 0.99, tailSlices), "ms"},
		"ops_per_s":        {ops / w.seconds(), "ops/s"},
		"unprotected_frac": {w.expo.unprotected(), "fraction"},
		"parity_lag_kb":    {w.expo.meanDirty() * float64(w.rn.sys.geo.StripeDataBytes()) / 1024, "KiB"},
		"cpu_us_per_op":    {float64(w.cpu.Microseconds()) / ops, "us/op"},
		"alloc_kb_per_op":  {float64(w.alloc) / 1024 / ops, "KiB/op"},
		"failed_frac":      {float64(w.failed()) / total, "fraction"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics from the window's spans and
// counters. base is the untraced window before it, for the tracing
// overhead.
func (w *window) perLayer(base *window, svcMs, floorMs float64) map[string]value {
	m := map[string]value{}
	for _, d := range perLayerMetrics {
		m[d.name] = value{0, d.unit}
	}
	set := func(name string, v float64) { m[name] = value{v, m[name].Unit} }
	ops := float64(max(1, w.ops()))
	secs := w.seconds()
	writes := w.userWriteBytes() / float64(w.rn.sh.blockSize)

	// Children of every span, by parent index within the window.
	idx := map[int32]int{} // tracer index -> window position
	for i := range w.spans {
		idx[int32(w.spanFrom+i)] = i
	}
	kids := make([][]span, len(w.spans))
	for _, s := range w.spans {
		if p, ok := idx[s.parent]; ok && s.parent >= 0 {
			kids[p] = append(kids[p], s)
		}
	}
	dur := func(s span) float64 { return float64(s.end-s.start) / 1e6 }

	var wait, coreW, coreSelf, tierR, tierW, clR, clW, clSelf, nodeMs, queue []float64
	var backends, clientCalls, coreWrites, coreWriteKids, nodeCalls, nodeFg, devOps, devLinked, devBg float64
	for i, s := range w.spans {
		switch s.kind {
		case kindBackend:
			backends++
			if p, ok := idx[s.parent]; ok && s.parent >= 0 {
				wait = append(wait, dur(w.spans[p])-dur(s))
			}
			a := w.arrays[s.arr]
			switch {
			case a.tier && s.write:
				tierW = append(tierW, dur(s))
			case a.tier:
				tierR = append(tierR, dur(s))
			case s.write:
				coreW = append(coreW, dur(s))
				coreSelf = append(coreSelf, dur(s)-float64(coverage(s.start, s.end, kids[i]))/1e6)
				coreWrites++
				coreWriteKids += float64(len(kids[i]))
			}
		case kindOp:
			if s.clientOf >= 0 {
				clientCalls++
			}
			if s.arr >= 0 {
				if s.write {
					clW = append(clW, dur(s))
				} else {
					clR = append(clR, dur(s))
				}
				clSelf = append(clSelf, dur(s)-float64(coverage(s.start, s.end, kids[i]))/1e6)
			}
		case kindNode:
			clientCalls++
			nodeCalls++
			nodeMs = append(nodeMs, dur(s))
			if s.parent >= 0 {
				nodeFg++
			}
		case kindDevice:
			devOps++
			if s.modeled {
				queue = append(queue, float64(s.began-s.start)/1e6)
			}
			if w.arrays[s.arr].linked {
				devLinked++
				if !w.foreground(idx, s) {
					devBg++
				}
			}
		}
	}
	set("server.wait_ms_p50", quantile(wait, 0.5))
	set("server.wait_ms_p99", quantile(wait, 0.99))
	set("server.backend_calls_per_op", ratio(backends, clientCalls))
	set("core.write_ms_p50", quantile(coreW, 0.5))
	set("core.write_ms_p99", quantile(coreW, 0.99))
	set("core.self_ms_p50", quantile(coreSelf, 0.5))
	set("core.device_ops_per_write", ratio(coreWriteKids, coreWrites))
	set("tier.read_ms_p50", quantile(tierR, 0.5))
	set("tier.read_ms_p99", quantile(tierR, 0.99))
	set("tier.write_ms_p50", quantile(tierW, 0.5))
	set("cluster.read_ms_p50", quantile(clR, 0.5))
	set("cluster.write_ms_p50", quantile(clW, 0.5))
	set("cluster.self_ms_p50", quantile(clSelf, 0.5))
	set("cluster.node_calls_per_op", ratio(nodeFg, float64(len(clR)+len(clW))))
	set("cluster.node_ms_p50", quantile(nodeMs, 0.5))
	set("cluster.node_ms_p99", quantile(nodeMs, 0.99))
	set("device.queue_ms_p50", quantile(queue, 0.5))
	set("device.queue_ms_p99", quantile(queue, 0.99))
	set("device.ops_per_op", devOps/ops)
	set("device.background_frac", ratio(devBg, devLinked))

	c0, c1 := w.c0, w.c1
	set("core.nvram_persists_per_write", ratio(float64(c1.core.NVRAMPersists-c0.core.NVRAMPersists), writes))
	set("core.scrub_stripes_per_s", float64(c1.core.ScrubbedStripes-c0.core.ScrubbedStripes)/secs)
	set("core.scrub_preempt_frac", ratio(float64(c1.core.ScrubPreempts-c0.core.ScrubPreempts), float64(c1.core.IdleEpisodes-c0.core.IdleEpisodes)))
	set("core.dirty_high_water", float64(c1.core.DirtyHighWater))
	t0, t1 := c0.tier, c1.tier
	set("tier.front_read_hit_frac", ratio(float64(t1.FrontReadHits-t0.FrontReadHits), float64(t1.FrontReadHits-t0.FrontReadHits+t1.FrontReadMisses-t0.FrontReadMisses)))
	set("tier.front_write_hit_frac", ratio(float64(t1.FrontWriteHits-t0.FrontWriteHits), float64(t1.Writes-t0.Writes)))
	set("tier.promotes_per_op", ratio(float64(t1.Promotes-t0.Promotes), float64(t1.Reads-t0.Reads+t1.Writes-t0.Writes)))
	set("tier.demotes_per_op", ratio(float64(t1.Demotes-t0.Demotes), float64(t1.Reads-t0.Reads+t1.Writes-t0.Writes)))
	if t1.Reads+t1.Writes > 0 {
		set("tier.back_device_ops_per_op", float64(w.dev.ops)/ops)
	}
	v0, v1 := c0.vol, c1.vol
	set("cluster.hedge_frac", ratio(float64(v1.HedgedReads-v0.HedgedReads), float64(v1.Reads-v0.Reads)))
	set("cluster.hedge_win_frac", ratio(float64(v1.HedgeWins-v0.HedgeWins), float64(v1.HedgedReads-v0.HedgedReads)))
	set("cluster.inline_drains_per_write", ratio(float64(v1.InlineDrains-v0.InlineDrains), float64(v1.Writes-v0.Writes)))
	set("cluster.drain_stripes_per_s", float64(v1.ParityDrains-v0.ParityDrains)/secs)

	set("device.busy_frac", w.dev.busy.Seconds()/secs/float64(len(w.rn.sys.devs)))
	set("device.write_bytes_per_user_byte", ratio(float64(w.dev.writeBytes+w.front.writeBytes), w.userWriteBytes()))
	set("device.svc_ms_mean", svcMs)
	if w.rn.sh.open {
		set("bench.gen_late_ms_p99", w.lateness(0.99))
	}
	key := "write_p50_ms"
	set("bench.trace_overhead_pct", 100*(ratio(w.endToEnd(0)[key].Value, base.endToEnd(0)[key].Value)-1))
	set("bench.sleep_floor_ms", floorMs)
	return m
}

// foreground reports whether a span descends from a generator request.
func (w *window) foreground(idx map[int32]int, s span) bool {
	for s.kind != kindOp {
		p, ok := idx[s.parent]
		if !ok || s.parent < 0 {
			return false
		}
		s = w.spans[p]
	}
	return true
}

// exposure integrates the number of dirty stripes over time, sampled
// every few milliseconds: the time-weighted fraction with any
// stripe unredundant (the paper's Tunprot/Ttotal) and the mean count.
type exposure struct {
	dirty      func() int64
	done, quit chan struct{}
	mu         sync.Mutex
	total      time.Duration
	unprot     time.Duration
	area       float64 // stripe-seconds
}

const exposureTick = 5 * time.Millisecond

func startExposure(dirty func() int64) *exposure {
	e := &exposure{dirty: dirty, done: make(chan struct{}), quit: make(chan struct{})}
	go e.loop()
	return e
}

func (e *exposure) loop() {
	defer close(e.done)
	t := time.NewTicker(exposureTick)
	defer t.Stop()
	last, cur := time.Now(), e.dirty()
	step := func() {
		now := time.Now()
		dt := now.Sub(last)
		e.mu.Lock()
		e.total += dt
		if cur > 0 {
			e.unprot += dt
		}
		e.area += float64(cur) * dt.Seconds()
		e.mu.Unlock()
		last, cur = now, e.dirty()
	}
	for {
		select {
		case <-e.quit:
			step()
			return
		case <-t.C:
			step()
		}
	}
}

func (e *exposure) stop() {
	close(e.quit)
	<-e.done
}

func (e *exposure) unprotected() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ratio(e.unprot.Seconds(), e.total.Seconds())
}

func (e *exposure) meanDirty() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ratio(e.area, e.total.Seconds())
}

// paperAvail prints the paper's availability figures for this run's
// measured exposure.
func paperAvail(name string, e2e map[string]value) {
	p := avail.Default()
	frac, lagKB := e2e["unprotected_frac"].Value, e2e["parity_lag_kb"].Value
	r := p.AFRAIDReport(frac, lagKB*1024)
	if name == "burst-write-raid5" {
		r = p.RAID5Report()
	}
	fmt.Printf("paper: availability (avail.Default, %d disks): unprotected %.4f, mean parity lag %.1f KiB -> disk MTTDL %.4g h, disk MDLR %.4g B/h\n",
		p.Disks, frac, lagKB, r.DiskMTTDL, r.DiskMDLR)
}

// paperReport prints the client and store AFRAID/RAID-5 ratios from the
// saved results of both core workloads, once both have run.
func paperReport(dir, name string) {
	if name != "burst-write" && name != "burst-write-raid5" {
		return
	}
	a, b := load(dir, "burst-write", false), load(dir, "burst-write-raid5", false)
	at, bt := load(dir, "burst-write", true), load(dir, "burst-write-raid5", true)
	line := "paper: small-write penalty RAID-5/AFRAID:"
	if a != nil && b != nil {
		line += fmt.Sprintf(" client write p50 %.2f (%.3f / %.3f ms)", ratio(b["write_p50_ms"].Value, a["write_p50_ms"].Value), b["write_p50_ms"].Value, a["write_p50_ms"].Value)
	} else {
		line += " client ratio needs untraced runs of both burst workloads;"
	}
	if at != nil && bt != nil {
		line += fmt.Sprintf(" store write p50 %.2f (%.3f / %.3f ms)", ratio(bt["core.write_ms_p50"].Value, at["core.write_ms_p50"].Value), bt["core.write_ms_p50"].Value, at["core.write_ms_p50"].Value)
	} else {
		line += " store ratio needs traced runs of both burst workloads"
	}
	fmt.Println(line)
}
