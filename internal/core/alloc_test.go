package core

import (
	"testing"
)

// TestIOPathAllocs pins the foreground I/O path's allocation behavior:
// after warm-up, reads and writes — with and without checksums — run
// without heap allocation in every mode whose write path differs:
// RAID 0 full spans, RAID 5 sub-unit read-modify-writes, RAID 6 and
// AFRAID6 (defer Q) double-parity read-modify-writes, and AFRAID
// multi-extent spans — and, with the data disk under the extent failed,
// RAID 5 and RAID 6 sub-unit degraded reads and writes (reconstruct
// around the dead disk, store the stripe image). The pooled pieces this guards: span slices
// (SplitAppend + spanPool), checksum slot buffers (slotPool), unit
// scratch (bufpool), and the fan-out batch (request slots + WaitGroup
// in the pooled stripeBuf). A regression in any of them shows up here
// as a nonzero allocs/op long before it shows up as GC pressure in a
// throughput benchmark.
func TestIOPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	// Both test geometries have four data disks of testUnit each.
	cases := []struct {
		name    string
		mode    Mode
		six     bool // open with openTest6 (4 data + P + Q)
		off, ln int64
		fail    bool // fail the data disk under off first
	}{
		{"raid0-full-span", Raid0, false, 0, 4 * testUnit, false},
		{"raid5-sub-unit-rmw", Raid5, false, testUnit / 4, testUnit / 2, false},
		{"raid6-sub-unit-rmw", Raid6, true, testUnit / 4, testUnit / 2, false},
		{"afraid6-defer-q-rmw", Afraid6, true, testUnit / 4, testUnit / 2, false},
		{"afraid-multi-extent", Afraid, false, testUnit / 4, 4 * testUnit, false},
		{"raid5-degraded-sub-unit", Raid5, false, testUnit / 4, testUnit / 2, true},
		{"raid6-degraded-sub-unit", Raid6, true, testUnit / 4, testUnit / 2, true},
	}
	for _, checksums := range []bool{false, true} {
		name := "checksums=off"
		if checksums {
			name = "checksums=on"
		}
		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					opts := Options{Mode: tc.mode, DisableScrubber: true, Checksums: checksums}
					var s *Store
					if tc.six {
						s, _ = openTest6(t, opts)
					} else {
						s, _ = openTest(t, opts)
					}
					defer s.Close()
					if tc.fail {
						if err := s.FailDisk(s.geo.Locate(tc.off).Disk); err != nil {
							t.Fatal(err)
						}
					}
					buf := make([]byte, tc.ln)
					for i := 0; i < 16; i++ { // warm the pools (and mark the stripe once)
						if _, err := s.WriteAt(buf, tc.off); err != nil {
							t.Fatal(err)
						}
						if _, err := s.ReadAt(buf, tc.off); err != nil {
							t.Fatal(err)
						}
					}
					writes := testing.AllocsPerRun(100, func() {
						if _, err := s.WriteAt(buf, tc.off); err != nil {
							t.Fatal(err)
						}
					})
					reads := testing.AllocsPerRun(100, func() {
						if _, err := s.ReadAt(buf, tc.off); err != nil {
							t.Fatal(err)
						}
					})
					if writes >= 1 || reads >= 1 {
						t.Fatalf("steady-state I/O allocates (write %.1f, read %.1f allocs/op); pooled buffers regressed", writes, reads)
					}
				})
			}
		})
	}
}
