package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/parity"
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
	switch {
	case s.dead < 0 || s.dead == i:
		s.dead = i
	case s.geo.Level == layout.RAID6 && (s.dead2 < 0 || s.dead2 == i):
		// RAID 6 absorbs a second failure.
		s.dead2 = i
	default:
		return ErrTooManyFailures
	}
	if f, ok := s.devs[i].(Failer); ok {
		f.Fail()
	}
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
	if s.dead != i && s.dead2 != i {
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
	mode := s.opts.Mode
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
	unit := s.geo.StripeUnit
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
				// itself repaired from whatever redundancy remains and the
				// stripe retried; the damage list is truncated to this
				// worker's mark so an abandoned attempt cannot double-report.
				mark := len(part.Lost)
				var err error
				for tries := 0; ; tries++ {
					part.Lost = part.Lost[:mark]
					if s.geo.Level == layout.RAID6 {
						err = s.repairStripe6(stripe, i, replacement, part)
					} else {
						err = s.repairStripe(stripe, i, replacement, unit, mode, part)
					}
					if err == nil || tries >= s.spanRetryBudget() {
						break
					}
					var retry bool
					if retry, err = s.absorbMismatch(err); !retry {
						break
					}
				}
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
	if s.dead == i {
		s.dead, s.dead2 = s.dead2, -1
	} else {
		s.dead2 = -1
	}
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

// repairStripe reconstructs one stripe unit onto the replacement.
// Caller holds the stripe lock.
func (s *Store) repairStripe(stripe int64, dead int, replacement BlockDevice, unit int64, mode Mode, report *DamageReport) error {
	off := s.geo.DiskOffset(stripe)
	s.meta.Lock()
	dirty := mode != Raid0 && s.marks.IsMarked(stripe)
	pol := s.effectivePolicy(stripe)
	s.meta.Unlock()

	role, dataIdx := s.geo.RoleOf(stripe, dead)

	noParity := mode == Raid0 || pol == PolicyNeverRedundant

	if noParity && role == layout.Data {
		// Unprotected storage: contents gone, zero-fill and report.
		sb := s.getStripeBuf()
		defer s.putStripeBuf(sb)
		clear(sb.p)
		if _, err := replacement.WriteAt(sb.p, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, sb.p); err != nil {
			return err
		}
		report.Lost = append(report.Lost, DamagedRange{
			Offset: stripe*s.geo.StripeDataBytes() + int64(dataIdx)*unit,
			Length: unit,
			Stripe: stripe,
		})
		return nil
	}

	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)

	switch {
	case role == layout.Parity:
		// Recompute parity from the data units (valid whether or not
		// the stripe was dirty), clearing any mark.
		if err := s.readStripeUnits(sb, stripe, -1, -1); err != nil {
			return fmt.Errorf("core: repair: %w", err)
		}
		parity.Compute(sb.p, sb.units...)
		if _, err := replacement.WriteAt(sb.p, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, sb.p); err != nil {
			return err
		}
		s.clearMark(stripe)
		s.bumpRecovered()
		return nil

	case !dirty:
		// Clean stripe, lost data unit: exact reconstruction.
		s.queueStripeUnits(sb, stripe, dead, -1)
		sb.queueRead(s.geo.ParityDisk(stripe), sb.p, off)
		if err := s.fanOut(sb); err != nil {
			return fmt.Errorf("core: repair: %w", err)
		}
		lost := sb.units[dataIdx]
		parity.Reconstruct(lost, sb.p, sb.survivors(dataIdx)...)
		if _, err := replacement.WriteAt(lost, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, lost); err != nil {
			return err
		}
		s.bumpRecovered()
		return nil

	default:
		// Dirty stripe, lost data unit: unrecoverable. Zero-fill,
		// recompute parity over the zeroed stripe, report the loss.
		if err := s.readStripeUnits(sb, stripe, dead, -1); err != nil {
			return fmt.Errorf("core: repair: %w", err)
		}
		clear(sb.units[dataIdx])
		if _, err := replacement.WriteAt(sb.units[dataIdx], off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, sb.units[dataIdx]); err != nil {
			return err
		}
		parity.Compute(sb.p, sb.units...)
		if err := s.devWrite(s.geo.ParityDisk(stripe), sb.p, off); err != nil {
			return err
		}
		s.clearMark(stripe)
		report.Lost = append(report.Lost, DamagedRange{
			Offset: stripe*s.geo.StripeDataBytes() + int64(dataIdx)*unit,
			Length: unit,
			Stripe: stripe,
		})
		return nil
	}
}

// clearMark unconditionally unmarks a stripe (on parity-bearing
// layouts).
func (s *Store) clearMark(stripe int64) {
	s.meta.Lock()
	if s.geo.Level != layout.RAID0 {
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
// corruption plus the dead disk exceed the stripe's redundancy. Every
// data unit that cannot be read back verified — a corrupt survivor, or
// the target's unreconstructable unit — is zeroed and reported lost,
// then the parities are recomputed over the zeroed image so later
// reads and repairs see a consistent stripe (zeroes where data was
// lost) instead of garbage behind a stale parity. Caller holds the
// stripe lock.
func (s *Store) salvageStripe(stripe int64, target int, replacement BlockDevice, report *DamageReport) error {
	unit := s.geo.StripeUnit
	off := s.geo.DiskOffset(stripe)
	s.meta.Lock()
	dead := s.deadSet()
	s.meta.Unlock()
	isDead := func(d int) bool { return containsInt(dead, d) }

	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	lose := func(i int) {
		clear(sb.units[i])
		report.Lost = append(report.Lost, DamagedRange{
			Offset: stripe*s.geo.StripeDataBytes() + int64(i)*unit,
			Length: unit,
			Stripe: stripe,
		})
	}
	for i := range sb.units {
		d := s.geo.DataDisk(stripe, i)
		if isDead(d) {
			lose(i)
			if d == target {
				if _, err := replacement.WriteAt(sb.units[i], off); err != nil {
					return err
				}
				if err := s.putChecksumTo(replacement, stripe, sb.units[i]); err != nil {
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
		lose(i)
		if werr := s.devWrite(d, sb.units[i], off); werr != nil {
			return werr
		}
	}

	writeParity := func(d int, buf []byte) (bool, error) {
		switch {
		case d == target:
			if _, err := replacement.WriteAt(buf, off); err != nil {
				return false, err
			}
			return true, s.putChecksumTo(replacement, stripe, buf)
		case isDead(d):
			return false, nil
		default:
			return true, s.devWrite(d, buf, off)
		}
	}
	pDisk := s.geo.ParityDisk(stripe)
	if s.geo.Level == layout.RAID6 {
		parity.ComputePQ(sb.p, sb.q, sb.units...)
		pOK, err := writeParity(pDisk, sb.p)
		if err != nil {
			return err
		}
		qOK, err := writeParity(s.geo.QDisk(stripe), sb.q)
		if err != nil {
			return err
		}
		if pOK && qOK {
			s.clearMark(stripe)
		}
		return nil
	}
	parity.Compute(sb.p, sb.units...)
	pOK, err := writeParity(pDisk, sb.p)
	if err != nil {
		return err
	}
	if pOK {
		s.clearMark(stripe)
	}
	return nil
}
