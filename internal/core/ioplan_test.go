package core

import (
	"slices"
	"sync"
	"testing"
)

// ioRec is one member I/O: the disk, whether it wrote, and its length.
type ioRec struct {
	disk  int
	write bool
	n     int
}

// ioLog collects the member I/Os of every countDev sharing it while on.
type ioLog struct {
	mu   sync.Mutex
	on   bool
	recs []ioRec
}

func (l *ioLog) add(r ioRec) {
	l.mu.Lock()
	if l.on {
		l.recs = append(l.recs, r)
	}
	l.mu.Unlock()
}

// record runs op with the log on and returns its member I/Os, sorted.
func (l *ioLog) record(t *testing.T, op func() error) []ioRec {
	t.Helper()
	l.mu.Lock()
	l.on, l.recs = true, nil
	l.mu.Unlock()
	err := op()
	l.mu.Lock()
	l.on = false
	recs := l.recs
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sortRecs(recs)
	return recs
}

func sortRecs(r []ioRec) {
	slices.SortFunc(r, func(a, b ioRec) int {
		switch {
		case a.write != b.write:
			if a.write {
				return 1
			}
			return -1
		case a.disk != b.disk:
			return a.disk - b.disk
		}
		return a.n - b.n
	})
}

// countDev is a memory member that logs every I/O it serves.
type countDev struct {
	*MemDevice
	disk int
	log  *ioLog
}

func (d *countDev) ReadAt(p []byte, off int64) (int, error) {
	d.log.add(ioRec{d.disk, false, len(p)})
	return d.MemDevice.ReadAt(p, off)
}

func (d *countDev) WriteAt(p []byte, off int64) (int, error) {
	d.log.add(ioRec{d.disk, true, len(p)})
	return d.MemDevice.WriteAt(p, off)
}

func openCounted(t *testing.T, n int, opts Options) (*Store, *ioLog) {
	t.Helper()
	log := &ioLog{}
	devs := make([]BlockDevice, n)
	for i := range devs {
		devs[i] = &countDev{MemDevice: NewMemDevice(testDisk), disk: i, log: log}
	}
	opts.StripeUnit = testUnit
	opts.DisableScrubber = true
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, log
}

// TestMemberIOPlan pins the member I/Os each mode issues for one
// sub-unit write on a healthy array (checksums off): the read-modify-
// write reads and writes the data unit and every synchronous parity —
// P on RAID 5 and AFRAID6 deferring Q, P and Q on RAID 6 — while AFRAID
// and AFRAID6 deferring both write the data alone. This is what
// perfbench's core.device_ops_per_write measures, pinned here for the
// modes no benchmark workload runs too.
func TestMemberIOPlan(t *testing.T) {
	const stripe, idx = 3, 1
	const n = testUnit / 2
	for _, tc := range []struct {
		name     string
		opts     Options
		disks    int
		parities int // synchronous parities: 0 = P, 1 = P and Q, -1 = none
	}{
		{"raid5", Options{Mode: Raid5}, 5, 0},
		{"raid6", Options{Mode: Raid6}, 6, 1},
		{"afraid6-defer-q", Options{Mode: Afraid6}, 6, 0},
		{"afraid", Options{Mode: Afraid}, 5, -1},
		{"afraid6-defer-both", Options{Mode: Afraid6, DeferBothParities: true}, 6, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, log := openCounted(t, tc.disks, tc.opts)
			off := stripe*s.geo.StripeDataBytes() + idx*testUnit + testUnit/4
			disks := []int{s.geo.DataDisk(stripe, idx)}
			for j := 0; j <= tc.parities; j++ {
				disks = append(disks, s.parityDisk(stripe, j))
			}
			var want []ioRec
			for _, d := range disks {
				if tc.parities >= 0 {
					want = append(want, ioRec{d, false, n})
				}
				want = append(want, ioRec{d, true, n})
			}
			sortRecs(want)
			got := log.record(t, func() error {
				_, err := s.WriteAt(pattern(n, 5), off)
				return err
			})
			if !slices.Equal(got, want) {
				t.Fatalf("member I/Os %v, want %v", got, want)
			}
		})
	}
}

// TestDegradedReadIOPlan: a partial read of a failed data disk's unit on
// RAID 5 reads only the extent's byte range from each surviving data
// disk and from P.
func TestDegradedReadIOPlan(t *testing.T) {
	const stripe, idx = 3, 1
	const n = testUnit / 2
	s, log := openCounted(t, 5, Options{Mode: Raid5})
	off := stripe*s.geo.StripeDataBytes() + idx*testUnit + testUnit/4
	data := pattern(n, 9)
	if _, err := s.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	dead := s.geo.DataDisk(stripe, idx)
	if err := s.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	var want []ioRec
	for d := 0; d < 5; d++ {
		if d != dead {
			want = append(want, ioRec{d, false, n})
		}
	}
	got := make([]byte, n)
	recs := log.record(t, func() error {
		_, err := s.ReadAt(got, off)
		return err
	})
	if !slices.Equal(recs, want) {
		t.Fatalf("member I/Os %v, want %v", recs, want)
	}
	if !slices.Equal(got, data) {
		t.Fatal("degraded read differs from the write")
	}
}
