package core

import (
	"fmt"
	"time"

	"afraid/internal/layout"
	"afraid/internal/parity"
)

// RAID 6 / AFRAID6 support for the functional store (§5 extension):
// Raid6 maintains P and Q synchronously; Afraid6 defers the Q update
// (or both, with Options.DeferBothParities) to the scrubber. Deferring
// only Q keeps every stripe single-failure recoverable at all times —
// the "partial redundancy protection available immediately" point of
// the paper — while still removing most of the small-update penalty.

// parityFresh reports which of a stripe's parity blocks are trustworthy
// given its dirty state: Q is stale while dirty; P additionally when
// both updates are deferred. Synchronous Raid6 never marks, so both are
// always fresh there.
func (s *Store) parityFresh(dirty bool) (pFresh, qFresh bool) {
	if !dirty {
		return true, true
	}
	return !s.opts.DeferBothParities, false
}

// deadSet returns the currently failed disks.
func (s *Store) deadSet() []int {
	var out []int
	if s.dead >= 0 {
		out = append(out, s.dead)
	}
	if s.dead2 >= 0 {
		out = append(out, s.dead2)
	}
	return out
}

// materialize6 reconstructs all data units of a stripe into sb around
// the dead disks, fanning the survivor reads out to the I/O workers.
// It reports ok=false when the surviving fresh parities cannot cover
// the missing units (the data-loss case); the missing units' buffers
// then hold arbitrary pooled contents and must not be read. Caller
// holds the stripe lock.
func (s *Store) materialize6(sb *stripeBuf, stripe int64, dead []int, pFresh, qFresh bool) (ok bool, err error) {
	off := s.geo.DiskOffset(stripe)
	isDead := func(d int) bool {
		for _, x := range dead {
			if x == d {
				return true
			}
		}
		return false
	}

	skipA, skipB := -1, -1
	if len(dead) > 0 {
		skipA = dead[0]
	}
	if len(dead) > 1 {
		skipB = dead[1]
	}
	if err := s.readStripeUnits(sb, stripe, skipA, skipB); err != nil {
		return false, err
	}
	var missBuf [2]int
	missing := missBuf[:0]
	for i := range sb.units {
		if isDead(s.geo.DataDisk(stripe, i)) {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return true, nil
	}

	pDisk := s.geo.ParityDisk(stripe)
	qDisk := s.geo.QDisk(stripe)
	pAvail := pFresh && !isDead(pDisk)
	qAvail := qFresh && !isDead(qDisk)

	switch {
	case len(missing) == 1 && pAvail:
		if err := s.devRead(pDisk, sb.p, off); err != nil {
			return false, err
		}
		parity.Reconstruct(sb.units[missing[0]], sb.p, sb.survivors(missing[0])...)
		return true, nil

	case len(missing) == 1 && qAvail:
		if err := s.devRead(qDisk, sb.q, off); err != nil {
			return false, err
		}
		surv := make(map[int][]byte, len(sb.units)-1)
		for i, u := range sb.units {
			if i != missing[0] {
				surv[i] = u
			}
		}
		parity.ReconstructOnePQ(sb.units[missing[0]], missing[0], true, sb.q, surv)
		return true, nil

	case len(missing) == 2 && pAvail && qAvail:
		sb.queueRead(pDisk, sb.p, off)
		sb.queueRead(qDisk, sb.q, off)
		if err := s.fanOut(sb); err != nil {
			return false, err
		}
		surv := make(map[int][]byte, len(sb.units)-2)
		for i, u := range sb.units {
			if i != missing[0] && i != missing[1] {
				surv[i] = u
			}
		}
		parity.ReconstructTwoPQ(sb.units[missing[0]], sb.units[missing[1]],
			missing[0], missing[1], sb.p, sb.q, surv)
		return true, nil
	}
	return false, nil
}

// readSpan6 reads one stripe's extents on a RAID 6 store, using erasure
// reconstruction around failed disks. Caller holds the stripe lock.
func (s *Store) readSpan6(p []byte, base int64, sp layout.StripeSpan) error {
	s.meta.Lock()
	dead := s.deadSet()
	dirty := s.marks.IsMarked(sp.Stripe)
	s.meta.Unlock()
	pFresh, qFresh := s.parityFresh(dirty)

	degraded := false
	for _, d := range dead {
		degraded = degraded || onDisk(sp, d)
	}
	if !degraded {
		return s.spanIO(p, base, sp, false)
	}
	var sb *stripeBuf // lazily materialized
	defer func() {
		if sb != nil {
			s.putStripeBuf(sb)
		}
	}()
	for _, e := range sp.Extents {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		if !containsInt(dead, e.Disk) {
			if err := s.devRead(e.Disk, dst, e.DiskOff); err != nil {
				return err
			}
			continue
		}
		if sb == nil {
			sb = s.getStripeBuf()
			ok, err := s.materialize6(sb, sp.Stripe, dead, pFresh, qFresh)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%w: stripe %d", ErrDataLoss, sp.Stripe)
			}
			s.meta.Lock()
			s.stats.DegradedReads++
			s.meta.Unlock()
		}
		copy(dst, sb.units[e.DataIdx][e.UnitOff:e.UnitOff+e.Len])
	}
	return nil
}

// writeSpan6 dispatches a RAID 6 stripe write. Caller holds the stripe
// lock.
func (s *Store) writeSpan6(p []byte, base int64, sp layout.StripeSpan) error {
	s.meta.Lock()
	dead := s.deadSet()
	s.meta.Unlock()

	if len(dead) > 0 {
		return s.writeSpanDegraded6(p, base, sp, dead)
	}

	switch {
	case s.opts.Mode == Raid6:
		return s.writeSpanSync6(p, base, sp, true, true)
	case s.opts.DeferBothParities:
		// Both parities go stale at the mark, so corruption under a
		// partial extent must be found (and repaired) while they are
		// still fresh — see preflightChecksums.
		if err := s.preflightChecksums(sp); err != nil {
			return err
		}
		if err := s.markStripe(sp.Stripe); err != nil {
			return err
		}
		return s.writeSpanData(p, base, sp, -1)
	default: // Afraid6 deferring Q only: synchronous P, data write
		if err := s.markStripe(sp.Stripe); err != nil {
			return err
		}
		return s.writeSpanSync6(p, base, sp, true, false)
	}
}

// markStripe marks a stripe dirty, persists the map, and tracks the
// dirty-count high-water mark (the widest the unredundancy window ever
// got — the paper's exposure metric).
func (s *Store) markStripe(stripe int64) error {
	s.meta.Lock()
	changed := s.marks.Mark(stripe)
	// A fresh write may overwrite the corrupt unit that put the stripe
	// in quarantine; let the scrubber try again.
	s.dropQuarantine(stripe)
	var err error
	if changed {
		if c := s.marks.Count(); c > s.stats.DirtyHighWater {
			s.stats.DirtyHighWater = c
		}
		err = s.commitMarks()
	}
	s.meta.Unlock()
	return err
}

// writeSpanSync6 performs the double-parity read-modify-write for the
// included parities: read old data (and old P/Q ranges), delta-update,
// write data and parities.
func (s *Store) writeSpanSync6(p []byte, base int64, sp layout.StripeSpan, withP, withQ bool) error {
	for _, e := range sp.Extents {
		src := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		if err := s.rmwExtent6(sp.Stripe, e, src, withP, withQ); err != nil {
			return err
		}
	}
	return nil
}

// rmwExtent6 is one extent's double-parity read-modify-write. The old
// data, old P, and old Q ranges live on three different disks and are
// read in one fan-out; the new data and parities are written in
// another. All scratch comes from the stripe-buffer pool.
func (s *Store) rmwExtent6(stripe int64, e layout.Extent, src []byte, withP, withQ bool) error {
	pDisk := s.geo.ParityDisk(stripe)
	qDisk := s.geo.QDisk(stripe)
	rangeOff := s.geo.DiskOffset(stripe) + e.UnitOff
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	old := sb.units[0][:e.Len]
	par, q := sb.p[:e.Len], sb.q[:e.Len]
	sb.queueRead(e.Disk, old, e.DiskOff)
	if withP {
		sb.queueRead(pDisk, par, rangeOff)
	}
	if withQ {
		sb.queueRead(qDisk, q, rangeOff)
	}
	if err := s.fanOut(sb); err != nil {
		return err
	}
	pt := time.Now()
	if withP {
		parity.Update(par, old, src)
	}
	if withQ {
		parity.UpdateQ(q, old, src, e.DataIdx)
	}
	s.observeParity(pt)
	sb.queueWrite(e.Disk, src, e.DiskOff)
	if withP {
		sb.queueWrite(pDisk, par, rangeOff)
	}
	if withQ {
		sb.queueWrite(qDisk, q, rangeOff)
	}
	return s.fanOut(sb)
}

// writeSpanDegraded6 rewrites the stripe image around failed disks,
// keeping the surviving parities fresh so the missing units stay
// encoded. Caller holds the stripe lock.
func (s *Store) writeSpanDegraded6(p []byte, base int64, sp layout.StripeSpan, dead []int) error {
	stripe := sp.Stripe
	s.meta.Lock()
	dirty := s.marks.IsMarked(stripe)
	s.meta.Unlock()
	pFresh, qFresh := s.parityFresh(dirty)

	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	ok, err := s.materialize6(sb, stripe, dead, pFresh, qFresh)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: stripe %d", ErrDataLoss, stripe)
	}
	for _, e := range sp.Extents {
		src := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		copy(sb.units[e.DataIdx][e.UnitOff:], src)
	}
	return s.storeStripeImage6(stripe, sb, dead, dirty)
}

// storeStripeImage6 writes back data and recomputed parities to every
// surviving disk in one fan-out; with both parity disks alive the
// stripe ends fully redundant and is unmarked. A dead disk's unit
// (data, P, or Q) is mirrored onto an in-progress replacement once the
// repair sweep has passed this stripe — see storeStripeImage.
func (s *Store) storeStripeImage6(stripe int64, sb *stripeBuf, dead []int, wasDirty bool) error {
	off := s.geo.DiskOffset(stripe)
	pt := time.Now()
	parity.ComputePQ(sb.p, sb.q, sb.units...)
	s.observeParity(pt)
	pDisk := s.geo.ParityDisk(stripe)
	qDisk := s.geo.QDisk(stripe)
	put := func(d int, buf []byte) error {
		if containsInt(dead, d) {
			return s.mirrorUnit(stripe, d, buf, off)
		}
		sb.queueWrite(d, buf, off)
		return nil
	}
	for i, u := range sb.units {
		if err := put(s.geo.DataDisk(stripe, i), u); err != nil {
			return err
		}
	}
	if err := put(pDisk, sb.p); err != nil {
		return err
	}
	if err := put(qDisk, sb.q); err != nil {
		return err
	}
	if err := s.fanOut(sb); err != nil {
		return err
	}
	// The stripe is fully fresh only if both live parities were
	// rewritten; a dead parity disk gets its copy at repair time.
	if wasDirty && !containsInt(dead, pDisk) && !containsInt(dead, qDisk) {
		s.meta.Lock()
		s.marks.Unmark(stripe)
		s.dropQuarantine(stripe)
		err := s.commitMarks()
		s.meta.Unlock()
		return err
	}
	return nil
}

// rebuildParity6 is the scrubber's RAID 6 path: recompute the parities
// from the data units. Caller holds the stripe lock; no disks are dead
// (the scrubber checks). Both parities are always rewritten, even when
// only Q is deferred: a marked stripe may carry a *torn* synchronous P
// from a write interrupted by a crash, and unmarking it with that stale
// P in place would plant latent corruption.
func (s *Store) rebuildParity6(stripe int64) error {
	off := s.geo.DiskOffset(stripe)
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	if err := s.readStripeUnits(sb, stripe, -1, -1); err != nil {
		return fmt.Errorf("core: scrub: %w", err)
	}
	pt := time.Now()
	parity.ComputePQ(sb.p, sb.q, sb.units...)
	s.observeParity(pt)
	sb.queueWrite(s.geo.ParityDisk(stripe), sb.p, off)
	sb.queueWrite(s.geo.QDisk(stripe), sb.q, off)
	if err := s.fanOut(sb); err != nil {
		return fmt.Errorf("core: scrub: %w", err)
	}
	return nil
}

// checkStripe6 verifies one stripe's P and Q under its stripe lock.
func (s *Store) checkStripe6(sb *stripeBuf, stripe int64) (bool, error) {
	off := s.geo.DiskOffset(stripe)
	lk := s.stripeLock(stripe)
	lk.Lock()
	s.queueStripeUnits(sb, stripe, -1, -1)
	sb.queueRead(s.geo.ParityDisk(stripe), sb.p, off)
	sb.queueRead(s.geo.QDisk(stripe), sb.q, off)
	err := s.fanOut(sb)
	lk.Unlock()
	if err != nil {
		return false, err
	}
	return parity.CheckPQ(sb.p, sb.q, sb.units...), nil
}

// repairStripe6 reconstructs the target disk's unit of one stripe onto
// the replacement. When this repair makes the array whole again, the
// stripe's parities are refreshed and its mark cleared. Caller holds
// the stripe lock.
func (s *Store) repairStripe6(stripe int64, target int, replacement BlockDevice, report *DamageReport) error {
	unit := s.geo.StripeUnit
	off := s.geo.DiskOffset(stripe)
	s.meta.Lock()
	dead := s.deadSet()
	dirty := s.marks.IsMarked(stripe)
	s.meta.Unlock()
	pFresh, qFresh := s.parityFresh(dirty)

	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	ok, err := s.materialize6(sb, stripe, dead, pFresh, qFresh)
	if err != nil {
		return err
	}
	role, dataIdx := s.geo.RoleOf(stripe, target)

	isDead := func(d int) bool {
		for _, x := range dead {
			if x == d {
				return true
			}
		}
		return false
	}
	// devFor routes writes to the replacement for the target disk.
	devFor := func(d int) BlockDevice {
		if d == target {
			return replacement
		}
		return s.devs[d]
	}
	// reachable reports whether a disk can be written during this
	// repair: it is alive, or it is the target being rebuilt.
	reachable := func(d int) bool { return d == target || !isDead(d) }

	if !ok {
		// Unrecoverable stripe: every missing data unit's contents are
		// gone for good. Zero them all in the image (the pooled buffers
		// hold arbitrary contents), report each once, write zeros to the
		// target if it holds data, and refresh every reachable parity
		// over the zeroed image so later repairs reconstruct zeros
		// instead of garbage through a stale parity.
		for i := 0; i < s.geo.DataDisks(); i++ {
			d := s.geo.DataDisk(stripe, i)
			if !isDead(d) {
				continue
			}
			clear(sb.units[i])
			report.Lost = append(report.Lost, DamagedRange{
				Offset: stripe*s.geo.StripeDataBytes() + int64(i)*unit,
				Length: unit,
				Stripe: stripe,
			})
		}
		if role == layout.Data {
			if _, err := replacement.WriteAt(sb.units[dataIdx], off); err != nil {
				return err
			}
			if err := s.putChecksumTo(replacement, stripe, sb.units[dataIdx]); err != nil {
				return err
			}
		}
		parity.ComputePQ(sb.p, sb.q, sb.units...)
		pDisk, qDisk := s.geo.ParityDisk(stripe), s.geo.QDisk(stripe)
		pOK, qOK := reachable(pDisk), reachable(qDisk)
		if pOK {
			if _, err := devFor(pDisk).WriteAt(sb.p, off); err != nil {
				return err
			}
			if err := s.putChecksumTo(devFor(pDisk), stripe, sb.p); err != nil {
				return err
			}
		}
		if qOK {
			if _, err := devFor(qDisk).WriteAt(sb.q, off); err != nil {
				return err
			}
			if err := s.putChecksumTo(devFor(qDisk), stripe, sb.q); err != nil {
				return err
			}
		}
		// With both parities rewritten, the stripe is self-consistent
		// (over zeroed lost units) and fully redundant again.
		if pOK && qOK {
			s.clearMark(stripe)
		}
		return nil
	}

	switch role {
	case layout.Data:
		if _, err := replacement.WriteAt(sb.units[dataIdx], off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, sb.units[dataIdx]); err != nil {
			return err
		}
	case layout.Parity, layout.ParityQ:
		parity.ComputePQ(sb.p, sb.q, sb.units...)
		buf := sb.p
		if role == layout.ParityQ {
			buf = sb.q
		}
		if _, err := replacement.WriteAt(buf, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(replacement, stripe, buf); err != nil {
			return err
		}
	}
	s.bumpRecovered()

	// Last repair: refresh both parities and clear the mark so the
	// array ends fully redundant.
	if len(dead) == 1 {
		parity.ComputePQ(sb.p, sb.q, sb.units...)
		pd, qd := devFor(s.geo.ParityDisk(stripe)), devFor(s.geo.QDisk(stripe))
		if _, err := pd.WriteAt(sb.p, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(pd, stripe, sb.p); err != nil {
			return err
		}
		if _, err := qd.WriteAt(sb.q, off); err != nil {
			return err
		}
		if err := s.putChecksumTo(qd, stripe, sb.q); err != nil {
			return err
		}
		s.clearMark(stripe)
	}
	return nil
}
