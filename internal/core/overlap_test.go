package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"
)

// ioGate holds every armed member I/O of one kind (reads or writes) until
// the test releases it, announcing each held I/O's disk on entered. A
// test can then see which member I/Os are in flight together without
// sleeping: an I/O the store issues only after another one completes
// can never show up while that other one is still held.
type ioGate struct {
	mu      sync.Mutex
	armed   bool
	writes  bool
	entered chan int
	release chan struct{}
}

// heldDev is a memory member whose I/O passes through a shared gate.
type heldDev struct {
	*MemDevice
	disk int
	g    *ioGate
}

func (d *heldDev) hold(write bool) {
	d.g.mu.Lock()
	armed := d.g.armed && d.g.writes == write
	entered, release := d.g.entered, d.g.release
	d.g.mu.Unlock()
	if armed {
		entered <- d.disk
		<-release
	}
}

func (d *heldDev) ReadAt(p []byte, off int64) (int, error) {
	d.hold(false)
	return d.MemDevice.ReadAt(p, off)
}

func (d *heldDev) WriteAt(p []byte, off int64) (int, error) {
	d.hold(true)
	return d.MemDevice.WriteAt(p, off)
}

// openHeld opens a store over n gated memory members.
func openHeld(t *testing.T, n int, opts Options) (*Store, *ioGate) {
	t.Helper()
	g := &ioGate{}
	devs := make([]BlockDevice, n)
	for i := range devs {
		devs[i] = &heldDev{MemDevice: NewMemDevice(testDisk), disk: i, g: g}
	}
	opts.StripeUnit = testUnit
	opts.DisableScrubber = true
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, g
}

// expectOverlap runs op with g holding every write (or read) and
// requires the I/Os to the disks in want to be in flight at the same
// time: all of them must be held at once before any is released. The
// timer only turns a serialized regression into a failure instead of a
// hang; a passing run never waits on it.
func expectOverlap(t *testing.T, g *ioGate, writes bool, want []int, op func() error) {
	t.Helper()
	g.mu.Lock()
	g.armed, g.writes = true, writes
	g.entered = make(chan int, 16)
	g.release = make(chan struct{})
	entered, release := g.entered, g.release
	g.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- op() }()

	var held []int
	failsafe := time.After(10 * time.Second)
collect:
	for len(held) < len(want) {
		select {
		case d := <-entered:
			held = append(held, d)
		case <-failsafe:
			break collect
		}
	}
	g.mu.Lock()
	g.armed = false
	g.mu.Unlock()
	close(release)
	err := <-done
	if len(held) < len(want) {
		t.Fatalf("only disks %v in flight together, want %v: the rest waited for them", held, want)
	}
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(held)
	w := slices.Clone(want)
	slices.Sort(w)
	if !slices.Equal(held, w) {
		t.Fatalf("in flight together: disks %v, want %v", held, w)
	}
}

// TestRMWWritesOverlap: a small write's member writes go out together —
// data ‖ parity on RAID 5, data ‖ P ‖ Q on RAID 6, data ‖ P on AFRAID6
// deferring Q — so the update costs one write time, not one per member.
func TestRMWWritesOverlap(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		disks int
	}{{Raid5, 5}, {Raid6, 6}, {Afraid6, 6}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			s, g := openHeld(t, tc.disks, Options{Mode: tc.mode})
			const stripe, idx = 3, 1
			off := stripe*s.geo.StripeDataBytes() + idx*testUnit + testUnit/4
			data := pattern(testUnit/2, 7)
			want := []int{s.geo.DataDisk(stripe, idx), s.geo.ParityDisk(stripe)}
			if tc.mode == Raid6 {
				want = append(want, s.geo.QDisk(stripe))
			}
			expectOverlap(t, g, true, want, func() error {
				_, err := s.WriteAt(data, off)
				return err
			})
			got := make([]byte, len(data))
			if _, err := s.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read back differs from the overlapped write")
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if bad, err := s.CheckParity(); err != nil || len(bad) != 0 {
				t.Fatalf("CheckParity after overlapped write: %v %v", bad, err)
			}
		})
	}
}

// TestMultiExtentSpanOverlaps: a span covering several data units of one
// stripe reads and writes all of them at once on a healthy array.
func TestMultiExtentSpanOverlaps(t *testing.T) {
	s, g := openHeld(t, 5, Options{Mode: Afraid})
	const stripe = 2
	off := stripe * s.geo.StripeDataBytes()
	data := pattern(int(s.geo.StripeDataBytes()), 3)
	var want []int
	for i := 0; i < s.geo.DataDisks(); i++ {
		want = append(want, s.geo.DataDisk(stripe, i))
	}
	expectOverlap(t, g, true, want, func() error {
		_, err := s.WriteAt(data, off)
		return err
	})
	got := make([]byte, len(data))
	expectOverlap(t, g, false, want, func() error {
		_, err := s.ReadAt(got, off)
		return err
	})
	if !bytes.Equal(got, data) {
		t.Fatal("multi-extent read back differs")
	}
}

// TestFanOutInlineFallback: with no I/O worker left (Close stopped them
// all), every fan-out runs inline on the caller and still completes a
// multi-extent read-modify-write span, its read-back, and a parity check.
func TestFanOutInlineFallback(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Raid5, DisableScrubber: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	off := s.geo.StripeDataBytes() + testUnit/2
	data := pattern(2*testUnit, 11)
	for _, sp := range s.geo.Split(off, int64(len(data))) {
		if len(sp.Extents) < 2 {
			t.Fatalf("span of stripe %d has %d extents; want a multi-extent span", sp.Stripe, len(sp.Extents))
		}
		if err := s.writeSpan(data, off, sp); err != nil {
			t.Fatalf("write span after Close: %v", err)
		}
	}
	got := make([]byte, len(data))
	for _, sp := range s.geo.Split(off, int64(len(data))) {
		if err := s.readSpan(got, off, sp); err != nil {
			t.Fatalf("read span after Close: %v", err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("inline fan-out read back differs")
	}
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	if ok, err := s.checkStripe(sb, 1); err != nil || !ok {
		t.Fatalf("parity after inline read-modify-write: consistent=%v err=%v", ok, err)
	}
}
