package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"afraid/internal/layout"
)

// TestScheduleDeterministic pins that a seed alone fixes every
// workload's request stream, byte for byte.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		sh := w.sh
		sh.geo = layout.Geometry{Disks: 5, StripeUnit: 4 * sh.blockSize, DiskSize: 1024 * 4 * sh.blockSize, Level: layout.RAID5}
		sh.blocks = sh.geo.Capacity() / sh.blockSize
		a, b := makeSchedule(sh, 42, 3), makeSchedule(sh, 42, 3)
		if !reflect.DeepEqual(a, b) || digest(a) != digest(b) {
			t.Errorf("%s: seed 42 gave two different schedules", w.name)
		}
		if digest(a) == digest(makeSchedule(sh, 43, 3)) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", w.name)
		}
		for i, q := range a {
			if q.block < 0 || q.block >= sh.blocks {
				t.Fatalf("%s: request %d targets block %d of %d", w.name, i, q.block, sh.blocks)
			}
		}
	}
}

// TestOpenLoopReadsFollowWrites pins that an open-loop read only targets
// a block an earlier request wrote, so every read checks data.
func TestOpenLoopReadsFollowWrites(t *testing.T) {
	sh := burstShape()
	written := map[int64]bool{}
	reads := 0
	for i, q := range makeSchedule(sh, 7, 5) {
		if q.write {
			written[q.block] = true
			continue
		}
		reads++
		if !written[q.block] {
			t.Fatalf("request %d reads block %d before any write to it", i, q.block)
		}
	}
	if reads == 0 {
		t.Fatal("schedule has no reads")
	}
}

// burstShape is the burst workloads' shape over their array's geometry.
func burstShape() shape {
	sh := burst
	sh.geo = layout.Geometry{Disks: members, StripeUnit: stripeUnit, DiskSize: 16 << 20, Level: layout.RAID5}
	sh.blocks = sh.geo.Capacity() / sh.blockSize
	return sh
}

// TestWritesBalanceDisks pins the stratified placement: every run of
// disks×(disks-1) writes visits each (parity disk, data disk) pairing
// once.
func TestWritesBalanceDisks(t *testing.T) {
	sh := burstShape()
	g := sh.geo
	group := g.Disks * g.DataDisks()
	seen := map[[2]int]bool{}
	writes := 0
	for _, q := range makeSchedule(sh, 9, 5) {
		if !q.write {
			continue
		}
		loc := g.Locate(q.block * sh.blockSize)
		pair := [2]int{g.ParityDisk(loc.Stripe), loc.Disk}
		if seen[pair] {
			t.Fatalf("write %d repeats disk pairing %v within its group", writes, pair)
		}
		seen[pair] = true
		if writes++; writes%group == 0 {
			clear(seen)
		}
	}
}

func TestCoverage(t *testing.T) {
	kids := []span{{start: 5, end: 15}, {start: 10, end: 20}, {start: 30, end: 40}, {start: 90, end: 120}}
	if got := coverage(0, 100, kids); got != 15+10+10 {
		t.Fatalf("coverage = %d, want 35", got)
	}
	if got := coverage(0, 100, nil); got != 0 {
		t.Fatalf("coverage of no spans = %d", got)
	}
}

func TestStampCheck(t *testing.T) {
	rn := &runner{sh: shape{blockSize: 4096}, shadow: []int64{-1, 9}}
	got, want := make([]byte, 4096), make([]byte, 4096)
	if err := rn.check(0, got, want); err != nil {
		t.Fatalf("unwritten block of zeros: %v", err)
	}
	stamp(got, 4096, 9)
	if err := rn.check(1, got, want); err != nil {
		t.Fatalf("block with its last stamp: %v", err)
	}
	got[4000] ^= 1
	if rn.check(1, got, want) == nil {
		t.Fatal("a flipped byte passed the check")
	}
	stamp(got, 4096, 8)
	if rn.check(1, got, want) == nil {
		t.Fatal("a stale stamp passed the check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
