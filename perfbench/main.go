// Command perfbench is the repository's end-to-end benchmark. It drives
// the real serving path — load generator, server.Client, loopback TCP,
// internal/server, internal/tier or internal/core, member devices — and
// a four-node internal/cluster volume, over modeled disks, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on its last line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the request schedule")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	out := flag.String("out", "", "directory for saved results (the paper report reads them)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n≥2> --trace <0|1>\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err == nil && *out != "" {
		if serr := save(*out, w.name, *trace == 1, res.Metrics); serr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: save results:", serr)
		}
		paperReport(*out, w.name)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setups is how many times a run assembles the system; setup_s is the
// median, and the last assembly is the one measured.
const setups = 9

// run sets up, measures and verifies one workload. It returns a nil
// output only when nothing was measured.
func run(w workload, seed int64, seconds int, traced bool) (*output, error) {
	floorSleep, floorTimerfd, err := sleepFloor()
	if err != nil {
		return nil, err
	}
	var (
		sys   *system
		tr    *tracer
		times []float64
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			runtime.GC()
		}
		tr = newTracer()
		t := time.Now()
		if sys, err = w.build(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	defer sys.close()

	sh := w.sh
	sh.blocks, sh.geo = sys.capacity/sh.blockSize, sys.geo
	reqs := makeSchedule(sh, seed, seconds)
	fmt.Printf("workload %s seed %d seconds %d trace %v: %d requests scheduled, digest %s\n",
		w.name, seed, seconds, traced, len(reqs), digest(reqs))
	rn := newRunner(sys, sh, w.issuers, reqs, tr)

	wins, err := measure(rn, w, seconds, traced)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	// Verification: reads during the run were checked as they
	// completed; now flush, read everything back and check parity.
	var failures []error
	if err := rn.firstErr(); err != nil {
		failures = append(failures, err)
	} else if err := rn.verifyAll(context.Background()); err != nil {
		failures = append(failures, err)
	} else {
		fmt.Printf("verify: every read matched; after flush all written blocks read back intact and parity is clean\n")
	}

	// The end-to-end figures of a traced run (printed, never reported
	// as JSON) come from its traced half, like its per-layer metrics.
	meas := wins[len(wins)-1]
	var all devStats
	for _, win := range wins {
		all = all.add(win.dev, 1)
	}
	achieved, modelMs, medRatio, merr := modelCheck(all)
	fmt.Printf("device model: achieved %.3f ms per member op, model %.3f ms, median achieved/model %.2f; host sleep floor: time.Sleep(50µs) %.3f ms, timerfd %.3f ms\n",
		achieved, modelMs, medRatio, floorSleep, floorTimerfd)
	if merr != nil {
		failures = append(failures, merr)
	}
	if sh.open {
		var lateMax float64
		for _, win := range wins {
			lateMax = max(lateMax, win.lateness(1))
		}
		fmt.Printf("generator: late p99 %.3f ms, max %.3f ms\n", meas.lateness(0.99), lateMax)
		if lateMax > ms(sh.off) {
			failures = append(failures, fmt.Errorf("generator behind schedule: a request went out %.1f ms late, past the %v idle gap", lateMax, sh.off))
		}
	}

	out := &output{Correct: len(failures) == 0, Metrics: map[string]value{}}
	for _, win := range wins {
		out.Attempted += win.to - win.from
		out.Failed += win.failed()
	}
	e2e := meas.endToEnd(quantile(times, 0.5))
	printTable("end-to-end", e2e)
	if traced {
		layer := meas.perLayer(wins[0], achieved, floorSleep)
		printTable("per-layer", layer)
		for _, m := range perLayerMetrics {
			out.Metrics[m.name] = layer[m.name]
		}
	} else {
		for _, m := range endToEndMetrics {
			out.Metrics[m.name] = e2e[m.name]
		}
	}
	paperAvail(w.name, e2e)
	return out, errors.Join(failures...)
}

// measure runs the timed windows: one, or with tracing an untraced
// half followed by a traced half. An open-loop run times whole ON/OFF
// cycles; a closed-loop run first sends the workload's warm-up requests.
func measure(rn *runner, w workload, seconds int, traced bool) ([]*window, error) {
	var wins []*window
	sh := rn.sh
	if sh.open {
		cyc, per := sh.cycles(seconds), sh.perCycle()
		bounds := []int{0, cyc}
		if traced {
			bounds = []int{0, cyc / 2, cyc}
		}
		t0 := time.Now()
		for k := 0; k+1 < len(bounds); k++ {
			rn.tr.on.Store(traced && k == 1)
			from, to := bounds[k]*per, bounds[k+1]*per
			win := startWindow(rn, from)
			err := rn.openLoop(t0, from, to)
			time.Sleep(time.Until(t0.Add(time.Duration(bounds[k+1]) * (sh.on + sh.off))))
			win.finish(to)
			if err != nil {
				return nil, err
			}
			wins = append(wins, win)
		}
		return wins, nil
	}
	t := time.Now()
	rn.closedLoop(0, w.warmup, t.Add(time.Hour))
	fmt.Printf("warm-up: %d requests in %.2f s\n", w.warmup, time.Since(t).Seconds())
	durs := []time.Duration{time.Duration(seconds) * time.Second}
	if traced {
		durs = []time.Duration{durs[0] / 2, durs[0] - durs[0]/2}
	}
	next := w.warmup
	for k, d := range durs {
		rn.tr.on.Store(traced && k == 1)
		win := startWindow(rn, next)
		next = rn.closedLoop(next, len(rn.reqs), time.Now().Add(d))
		win.finish(next)
		wins = append(wins, win)
	}
	return wins, nil
}

func printTable(title string, m map[string]value) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s metrics:\n", title)
	for _, k := range keys {
		fmt.Printf("  %-34s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// save records a run's metrics for the paper report of later runs.
func save(dir, name string, traced bool, m map[string]value) error {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, name, traced), b, 0o644)
}

func resultPath(dir, name string, traced bool) string {
	if traced {
		name += ".trace"
	}
	return filepath.Join(dir, "results", name+".json")
}

func load(dir, name string, traced bool) map[string]value {
	b, err := os.ReadFile(resultPath(dir, name, traced))
	if err != nil {
		return nil
	}
	var m map[string]value
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}
