package core

import (
	"afraid/internal/layout"
	"afraid/internal/parity"
)

// One erasure path serves every layout. A stripe carries m parity units
// (0 on RAID 0, P on RAID 5, P and Q on RAID 6 — the §5 extension), and
// two masks over them drive every read, write, scrub, check and repair:
//
//   - the sync mask: the parities a write keeps fresh by read-modify-
//     write (all of them on RAID 5, RAID 6 and always-redundant stripes;
//     P alone on AFRAID6 deferring Q; none on AFRAID, AFRAID6 deferring
//     both, and never-redundant stripes). A write that keeps fewer than
//     m marks its stripe first, so the scrubber rebuilds the rest.
//   - the fresh mask: the parities a reconstruction may trust. A clean
//     stripe's are all fresh; a marked stripe keeps only the synchronous
//     ones, less the last parity (the one every deferring mode defers).
//
// A parity is used for reconstruction only while its mask bit is fresh.

// parityMask is a set of a stripe's parity units.
type parityMask uint8

const (
	maskP parityMask = 1 << iota // the XOR parity
	maskQ                        // the GF(2^8) parity (RAID 6 layouts)
)

// allParities is the mask of every parity unit the layout carries.
func (s *Store) allParities() parityMask { return 1<<s.m - 1 }

// syncMask returns the parities a write to a stripe with policy pol
// keeps fresh synchronously.
func (s *Store) syncMask(pol StripePolicy) parityMask {
	switch pol {
	case PolicyNeverRedundant:
		return 0
	case PolicyAlwaysRedundant:
		return s.allParities()
	}
	return s.sync
}

// freshMask returns the parities of a stripe that reconstruction may
// trust, given its dirty state and policy.
func (s *Store) freshMask(dirty bool, pol StripePolicy) parityMask {
	switch {
	case pol == PolicyNeverRedundant:
		return 0
	case !dirty:
		return s.allParities()
	}
	return s.syncMask(pol) &^ (parityMask(1<<s.m) >> 1)
}

// parityDisk returns the disk holding parity j (0 = P, 1 = Q).
func (s *Store) parityDisk(stripe int64, j int) int {
	if j == 0 {
		return s.geo.ParityDisk(stripe)
	}
	return s.geo.QDisk(stripe)
}

// parityBuf returns sb's scratch for parity j.
func (sb *stripeBuf) parityBuf(j int) []byte {
	if j == 0 {
		return sb.p
	}
	return sb.q
}

// encode computes every parity of the stripe image in sb from its data
// units.
func (s *Store) encode(sb *stripeBuf) {
	if s.m == 2 {
		parity.ComputePQ(sb.p, sb.q, sb.units...)
	} else {
		parity.Compute(sb.p, sb.units...)
	}
}

// consistent reports whether sb's parities encode its data units.
func (s *Store) consistent(sb *stripeBuf) bool {
	if s.m == 2 {
		return parity.CheckPQ(sb.p, sb.q, sb.units...)
	}
	return parity.Check(sb.p, sb.units...)
}

// deadSet is the store's set of failed members in failure order,
// bounded by the redundancy (see failDisk). It is a value, so the span
// paths snapshot it under meta without allocating.
type deadSet struct {
	n    int
	disk [2]int
}

func (d deadSet) has(x int) bool {
	for _, v := range d.disk[:d.n] {
		if v == x {
			return true
		}
	}
	return false
}

// last returns the most recently failed disk, or -1.
func (d deadSet) last() int {
	if d.n == 0 {
		return -1
	}
	return d.disk[d.n-1]
}

func (d *deadSet) remove(x int) {
	for i, v := range d.disk[:d.n] {
		if v == x {
			copy(d.disk[i:], d.disk[i+1:d.n])
			d.n--
			return
		}
	}
}

// onDead reports whether any of the span's extents lives on a dead disk.
func onDead(sp layout.StripeSpan, dead deadSet) bool {
	for _, e := range sp.Extents {
		if dead.has(e.Disk) {
			return true
		}
	}
	return false
}

// erasure is what a reconstruction works around: the data units it
// must rebuild (at most two — more is beyond any layout's redundancy)
// and the parities it may use.
type erasure struct {
	n     int
	idx   [2]int
	avail parityMask
}

// lose adds data index i to the units to rebuild; it reports false when
// that would make three.
func (e *erasure) lose(i int) bool {
	if e.lost(i) {
		return true
	}
	if e.n == len(e.idx) {
		return false
	}
	e.idx[e.n] = i
	e.n++
	return true
}

func (e erasure) lost(i int) bool {
	for _, v := range e.idx[:e.n] {
		if v == i {
			return true
		}
	}
	return false
}

// drop takes the unit on disk d out of the reconstruction: a data unit
// joins the units to rebuild, a parity leaves the usable set. It
// reports false when the data units to rebuild would exceed two.
func (s *Store) drop(e *erasure, stripe int64, d int) bool {
	switch role, idx := s.geo.RoleOf(stripe, d); role {
	case layout.Parity:
		e.avail &^= maskP
	case layout.ParityQ:
		e.avail &^= maskQ
	default:
		return e.lose(idx)
	}
	return true
}

// erasureOf builds the reconstruction of a stripe around the dead disks
// using the fresh parities.
func (s *Store) erasureOf(stripe int64, dead deadSet, fresh parityMask) erasure {
	e := erasure{avail: fresh}
	for _, d := range dead.disk[:dead.n] {
		s.drop(&e, stripe, d)
	}
	return e
}

// plan returns the parities that rebuild e's missing units — P alone
// (plain XOR) for one unit, else Q for one, both for two — or 0 when
// there is nothing to rebuild or e's parities cannot cover it.
func (e erasure) plan() parityMask {
	switch {
	case e.n == 1 && e.avail&maskP != 0:
		return maskP
	case e.n == 1 && e.avail&maskQ != 0:
		return maskQ
	case e.n == 2 && e.avail == maskP|maskQ:
		return maskP | maskQ
	}
	return 0
}

// covered reports whether e's parities can rebuild its missing units.
func (e erasure) covered() bool { return e.n == 0 || e.plan() != 0 }

// reconstruct reads a stripe's readable data units over the unit byte
// range [lo, hi) into sb.units, together with the parities e's plan
// needs, in one fan-out, and rebuilds the range of every missing unit.
// It reports ok=false when e's parities cannot cover the missing units;
// the survivors are read regardless (the repair paths re-encode over
// them) and the missing ranges hold arbitrary pooled contents. Caller
// holds the stripe lock.
func (s *Store) reconstruct(sb *stripeBuf, stripe int64, e erasure, lo, hi int64) (ok bool, err error) {
	off := s.geo.DiskOffset(stripe) + lo
	for i := range sb.units {
		if !e.lost(i) {
			sb.queueRead(s.geo.DataDisk(stripe, i), sb.units[i][lo:hi], off)
		}
	}
	use := e.plan()
	for j := 0; j < s.m; j++ {
		if use&(1<<j) != 0 {
			sb.queueRead(s.parityDisk(stripe, j), sb.parityBuf(j)[lo:hi], off)
		}
	}
	if err := s.fanOut(sb); err != nil {
		return false, err
	}
	switch {
	case e.n == 0:
		return true, nil
	case use == 0:
		return false, nil
	case use == maskP:
		x := e.idx[0]
		parity.Reconstruct(sb.units[x][lo:hi], sb.p[lo:hi], sb.survivors(x, lo, hi)...)
		return true, nil
	}
	surv := make(map[int][]byte, len(sb.units))
	for i, u := range sb.units {
		if !e.lost(i) {
			surv[i] = u[lo:hi]
		}
	}
	x := e.idx[0]
	if e.n == 1 {
		parity.ReconstructOnePQ(sb.units[x][lo:hi], x, true, sb.q[lo:hi], surv)
	} else {
		y := e.idx[1]
		parity.ReconstructTwoPQ(sb.units[x][lo:hi], sb.units[y][lo:hi], x, y, sb.p[lo:hi], sb.q[lo:hi], surv)
	}
	return true, nil
}
