package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"time"

	"afraid/internal/layout"
)

// request is one generated operation on one block.
type request struct {
	due   time.Duration // open loop: send time after the window opens
	block int64
	write bool
}

// shape is a workload's traffic: block size and address space, and
// either an ON/OFF open-loop schedule or a closed-loop request stream.
type shape struct {
	blockSize int64
	blocks    int64
	geo       layout.Geometry // open loop: the array the blocks stripe over
	readFrac  float64

	// Open loop: rate requests per second for on, then off idle.
	open    bool
	rate    float64
	on, off time.Duration

	// Closed loop: Zipf exponent over the blocks (0 = uniform).
	zipf float64
}

// closedLoopPerSecond bounds the closed-loop stream generated per
// second of run time; a run that exhausts it ends early.
const closedLoopPerSecond = 20000

// cycles is how many ON/OFF cycles fit in the given run time.
func (sh shape) cycles(seconds int) int {
	return max(1, int(time.Duration(seconds)*time.Second/(sh.on+sh.off)))
}

// perCycle is the requests issued in one ON period.
func (sh shape) perCycle() int { return int(sh.rate * sh.on.Seconds()) }

// makeSchedule derives the request stream from seed alone. Open-loop
// requests are spaced evenly through each ON period. Writes pick a
// random block in a random stripe, but stratified: each run of
// disks×(disks-1) writes visits every pairing of parity disk and data
// disk once, in random order. Every burst then loads the members
// evenly; with plain uniform placement, RAID 5's write p50 moved by a
// fifth from seed to seed with how often a burst piled onto one disk.
// Reads re-read a block written earlier in the stream, so every read
// checks data. Closed-loop requests pick blocks from a
// Zipf distribution over the address space, block k being the k-th
// most popular, so hot blocks share extents as hot files share tracks.
func makeSchedule(sh shape, seed int64, seconds int) []request {
	r := rand.New(rand.NewSource(seed))
	if !sh.open {
		z := rand.NewZipf(r, sh.zipf, 1, uint64(sh.blocks-1))
		n := closedLoopPerSecond * seconds
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = request{block: int64(z.Uint64()), write: r.Float64() >= sh.readFrac}
		}
		return reqs
	}
	per, cycles := sh.perCycle(), sh.cycles(seconds)
	gap := time.Duration(float64(time.Second) / sh.rate)
	reqs := make([]request, 0, per*cycles)
	var written []int64
	g := sh.geo
	disks, data := int64(g.Disks), int64(g.DataDisks())
	stripeBlocks, unitBlocks := g.StripeDataBytes()/sh.blockSize, g.StripeUnit/sh.blockSize
	var pairs []int
	for c := 0; c < cycles; c++ {
		for i := 0; i < per; i++ {
			q := request{due: time.Duration(c)*(sh.on+sh.off) + time.Duration(i)*gap}
			if len(written) > 0 && r.Float64() < sh.readFrac {
				q.block = written[r.Intn(len(written))]
				reqs = append(reqs, q)
				continue
			}
			if len(pairs) == 0 {
				pairs = r.Perm(int(disks * data))
			}
			pair := int64(pairs[0])
			pairs = pairs[1:]
			// The parity disk rotates with the stripe number modulo the
			// disks, so a residue class of stripes fixes it.
			stripe := r.Int63n(g.Stripes()/disks)*disks + pair/data
			q.write = true
			q.block = stripe*stripeBlocks + (pair%data)*unitBlocks + r.Int63n(unitBlocks)
			written = append(written, q.block)
			reqs = append(reqs, q)
		}
	}
	return reqs
}

// digest is a short hash of the encoded schedule, printed with every
// run so two runs can be shown to have sent the same requests.
func digest(reqs []request) string {
	h := sha256.New()
	var b [17]byte
	for _, q := range reqs {
		binary.LittleEndian.PutUint64(b[0:], uint64(q.due))
		binary.LittleEndian.PutUint64(b[8:], uint64(q.block))
		b[16] = 0
		if q.write {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
