package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"afraid/internal/layout"
	"afraid/internal/nvram"
)

// Failer is implemented by devices that can be switched into a
// fail-stop state (MemDevice, fault-injection wrappers). FailDisk uses
// it to make the device itself start erroring, not just the store's
// bookkeeping.
type Failer interface {
	Fail()
}

// FailDisk injects a fail-stop failure of disk i. Subsequent reads of
// its units are served degraded (for clean stripes) and writes maintain
// parity synchronously. Only one failure can be outstanding (two on
// RAID 6 layouts).
func (s *Store) FailDisk(i int) error {
	if i < 0 || i >= len(s.devs) {
		return fmt.Errorf("core: disk %d out of range", i)
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.failDisk(i); err != nil {
		return err
	}
	if f, ok := s.devs[i].(Failer); ok {
		f.Fail()
	}
	return nil
}

// failDisk adds disk i to the dead set; failing a dead disk again is a
// no-op. The set holds as many failures as the layout has parities (at
// least one, so a RAID 0 member can fail too). Caller holds meta.
func (s *Store) failDisk(i int) error {
	if s.dead.has(i) {
		return nil
	}
	if s.dead.n >= max(1, s.m) {
		return ErrTooManyFailures
	}
	s.dead.disk[s.dead.n] = i
	s.dead.n++
	return nil
}

// DamagedRange is a client byte range whose contents were lost: it
// lived on the failed disk inside a stripe whose parity was stale.
type DamagedRange struct {
	Offset int64
	Length int64
	Stripe int64
}

// DamageReport lists the data lost during a repair. For a RAID 5 store
// (or an AFRAID store that was fully flushed) it is empty; for an
// AFRAID store it is bounded by the stripes that were dirty at failure
// time — the paper's key argument that the exposure is small and
// enumerable.
type DamageReport struct {
	Lost []DamagedRange
}

// Bytes returns the total bytes lost.
func (r DamageReport) Bytes() int64 {
	var n int64
	for _, d := range r.Lost {
		n += d.Length
	}
	return n
}

// RepairDisk replaces failed disk i with a fresh device and
// reconstructs its contents:
//
//   - clean stripes: the lost unit (data or parity) is rebuilt exactly
//     from the survivors;
//   - dirty stripes whose lost unit was parity: parity is recomputed
//     from the data (no loss);
//   - dirty stripes whose lost unit was data: the contents are gone —
//     the unit is zero-filled, parity is recomputed over the zeroed
//     stripe, and the range is recorded in the damage report.
//
// After a successful repair the array is fully redundant again.
func (s *Store) RepairDisk(i int, replacement BlockDevice) (DamageReport, error) {
	var report DamageReport
	if i < 0 || i >= len(s.devs) {
		return report, fmt.Errorf("core: disk %d out of range", i)
	}
	need := s.geo.DiskSize
	if s.opts.Checksums {
		need += s.geo.ChecksumTrailerBytes()
	}
	if replacement.Size() < need {
		return report, fmt.Errorf("core: replacement size %d smaller than member size %d",
			replacement.Size(), need)
	}
	s.meta.Lock()
	if s.closed {
		s.meta.Unlock()
		return report, ErrClosed
	}
	if !s.dead.has(i) {
		s.meta.Unlock()
		return report, fmt.Errorf("core: disk %d is not a failed disk", i)
	}
	if s.repDisk >= 0 {
		s.meta.Unlock()
		return report, fmt.Errorf("core: repair of disk %d already in progress", s.repDisk)
	}
	// Publish the sweep so concurrent degraded writes mirror already-
	// repaired stripes onto the replacement (see repairTarget).
	s.repDisk, s.repDev, s.repDone = i, replacement, nvram.NewBitmap(s.geo.Stripes())
	s.meta.Unlock()

	clearRepair := func() {
		s.meta.Lock()
		s.repDisk, s.repDev, s.repDone = -1, nil, nil
		s.meta.Unlock()
	}

	// The sweep: scrub workers stride an atomic cursor, each rebuilding
	// its stripe under that stripe's lock. Stripes complete out of
	// order, which is why repDone is a bitmap; each worker collects its
	// own damage list and the parts are merged and sorted afterwards.
	stripes := s.geo.Stripes()
	workers := s.scrubWorkers()
	if int64(workers) > stripes {
		workers = int(stripes)
	}
	var (
		cur      atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	parts := make([]DamageReport, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part *DamageReport) {
			defer wg.Done()
			for {
				stripe := cur.Add(1) - 1
				if stripe >= stripes {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				lk := s.stripeLock(stripe)
				lk.Lock()
				// A survivor failing checksum verification mid-repair is
				// itself repaired from whatever redundancy remains, and a
				// member failing mid-repair joins the dead set while the
				// redundancy lasts; either way the stripe is retried, with
				// the damage list truncated to this worker's mark so an
				// abandoned attempt cannot double-report.
				mark := len(part.Lost)
				err := s.absorbRetry(false, func() error {
					part.Lost = part.Lost[:mark]
					return s.repairStripe(stripe, i, replacement, part)
				})
				if err != nil && errors.Is(err, ErrDataLoss) {
					// Corruption plus the dead disk exceed the stripe's
					// redundancy: salvage what is readable, zero and report
					// the rest, like a dirty stripe's lost data unit.
					part.Lost = part.Lost[:mark]
					err = s.salvageStripe(stripe, i, replacement, part)
				}
				if err == nil {
					// Set the done bit while still holding the stripe lock,
					// so a writer acquiring it next observes the bit and
					// mirrors its update onto the replacement.
					s.meta.Lock()
					s.repDone.Mark(stripe)
					s.meta.Unlock()
				}
				lk.Unlock()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	if firstErr != nil {
		clearRepair()
		return report, firstErr
	}
	for _, p := range parts {
		report.Lost = append(report.Lost, p.Lost...)
	}
	sort.Slice(report.Lost, func(a, b int) bool {
		return report.Lost[a].Offset < report.Lost[b].Offset
	})

	// Swap under a full stripe-lock barrier. An in-flight degraded span
	// snapshots the dead set at entry; if the swap overlapped such a
	// span, its update could fall between the mirror path (repair no
	// longer published) and the normal path (swap not yet observed) and
	// be lost. Holding every lock in the pool drains in-flight spans
	// first; new ones then see the healthy array.
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.meta.Lock()
	s.devs[i] = replacement
	s.dead.remove(i)
	s.repDisk, s.repDev, s.repDone = -1, nil, nil
	s.stats.DamagedStripes += uint64(len(report.Lost))
	s.stats.DamageBytes += report.Bytes()
	err := s.commitMarks()
	s.meta.Unlock()
	for k := range s.locks {
		s.locks[k].Unlock()
	}
	return report, err
}

// repairStripe rebuilds the target disk's unit of one stripe onto the
// replacement. The stripe is reconstructed around the dead disks from
// its fresh parities. When they cannot cover the missing data units —
// a dirty stripe's stale parity, a never-redundant stripe — those units
// are gone: they are zeroed and reported, and every reachable parity is
// re-encoded over the zeroed image so later repairs reconstruct zeroes
// instead of garbage. When this repair makes the array whole, a dirty
// stripe's parities are all re-encoded too (one may be torn, see
// rebuildParity). The mark is cleared once every parity is rewritten.
// Caller holds the stripe lock.
func (s *Store) repairStripe(stripe int64, target int, replacement BlockDevice, report *DamageReport) error {
	s.meta.Lock()
	dead := s.dead
	dirty := s.marks.IsMarked(stripe)
	pol := s.effectivePolicy(stripe)
	s.meta.Unlock()

	e := s.erasureOf(stripe, dead, s.freshMask(dirty, pol))
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	ok := e.covered()
	if ok || pol != PolicyNeverRedundant {
		// The survivors are needed to rebuild from or to re-encode over.
		if _, err := s.reconstruct(sb, stripe, e, 0, s.geo.StripeUnit); err != nil {
			return fmt.Errorf("core: repair: %w", err)
		}
	}
	if !ok {
		for _, i := range e.idx[:e.n] {
			s.loseUnit(sb, stripe, i, report)
		}
	}
	role, idx := s.geo.RoleOf(stripe, target)
	var refresh parityMask
	switch role {
	case layout.Data:
		if err := s.repairWrite(stripe, target, replacement, target, sb.units[idx]); err != nil {
			return err
		}
	case layout.Parity:
		refresh = maskP
	case layout.ParityQ:
		refresh = maskQ
	}
	if pol != PolicyNeverRedundant && (!ok || dirty && dead.n == 1) {
		refresh = s.allParities()
	}
	written, err := s.writeParities(sb, stripe, refresh, dead, target, replacement)
	if err != nil {
		return err
	}
	if ok {
		s.bumpRecovered()
	}
	if written == s.allParities() {
		s.clearMark(stripe)
	}
	return nil
}

// repairWrite writes disk d's unit of a stripe during the repair of
// disk target: onto the replacement, checksum slot included, when d is
// the target, else onto the live member.
func (s *Store) repairWrite(stripe int64, target int, replacement BlockDevice, d int, buf []byte) error {
	off := s.geo.DiskOffset(stripe)
	if d != target {
		return s.devWrite(d, buf, off)
	}
	if _, err := replacement.WriteAt(buf, off); err != nil {
		return err
	}
	return s.putChecksumTo(replacement, stripe, buf)
}

// writeParities re-encodes sb and writes the parities in refresh that
// are reachable — alive, or the target being rebuilt. It returns the
// mask of parities written.
func (s *Store) writeParities(sb *stripeBuf, stripe int64, refresh parityMask, dead deadSet, target int, replacement BlockDevice) (parityMask, error) {
	if refresh == 0 {
		return 0, nil
	}
	s.encode(sb)
	var written parityMask
	for j := 0; j < s.m; j++ {
		d := s.parityDisk(stripe, j)
		if refresh&(1<<j) == 0 || d != target && dead.has(d) {
			continue
		}
		if err := s.repairWrite(stripe, target, replacement, d, sb.parityBuf(j)); err != nil {
			return written, err
		}
		written |= 1 << j
	}
	return written, nil
}

// loseUnit zeroes data unit i of the stripe image in sb and reports it
// lost.
func (s *Store) loseUnit(sb *stripeBuf, stripe int64, i int, report *DamageReport) {
	clear(sb.units[i])
	report.Lost = append(report.Lost, DamagedRange{
		Offset: stripe*s.geo.StripeDataBytes() + int64(i)*s.geo.StripeUnit,
		Length: s.geo.StripeUnit,
		Stripe: stripe,
	})
}

// clearMark unconditionally unmarks a stripe (on parity-bearing
// layouts).
func (s *Store) clearMark(stripe int64) {
	s.meta.Lock()
	if s.m > 0 {
		s.marks.Unmark(stripe)
	}
	s.dropQuarantine(stripe)
	s.meta.Unlock()
}

// bumpRecovered counts an exactly-reconstructed stripe.
func (s *Store) bumpRecovered() {
	s.meta.Lock()
	s.stats.RecoveredStripes++
	s.meta.Unlock()
}

// salvageStripe handles a repair-sweep stripe where detected checksum
// corruption plus the dead disks exceed the stripe's redundancy. Every
// data unit that cannot be read back verified — a corrupt survivor, or
// a dead disk's unreconstructable unit — is zeroed and reported lost,
// then the parities are re-encoded over the zeroed image so later
// reads and repairs see a consistent stripe (zeroes where data was
// lost) instead of garbage behind a stale parity. Caller holds the
// stripe lock.
func (s *Store) salvageStripe(stripe int64, target int, replacement BlockDevice, report *DamageReport) error {
	off := s.geo.DiskOffset(stripe)
	s.meta.Lock()
	dead := s.dead
	s.meta.Unlock()

	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	for i := range sb.units {
		d := s.geo.DataDisk(stripe, i)
		if dead.has(d) {
			s.loseUnit(sb, stripe, i, report)
			if d == target {
				if err := s.repairWrite(stripe, target, replacement, d, sb.units[i]); err != nil {
					return err
				}
			}
			continue
		}
		err := s.devRead(d, sb.units[i], off)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrChecksumMismatch) {
			return err
		}
		// Corrupt beyond repair: zero it in place (installing a fresh
		// slot) so the stripe converges instead of erroring forever.
		s.loseUnit(sb, stripe, i, report)
		if werr := s.devWrite(d, sb.units[i], off); werr != nil {
			return werr
		}
	}
	written, err := s.writeParities(sb, stripe, s.allParities(), dead, target, replacement)
	if err != nil {
		return err
	}
	if written == s.allParities() {
		s.clearMark(stripe)
	}
	return nil
}
