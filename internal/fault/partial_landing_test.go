package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"afraid/internal/core"
)

// TestPartialLandingRetry covers the read-modify-write fan-out's failure
// edge. A small write's data, P and Q writes are issued together, so
// when one member's write fails the others have already landed: any
// subset of {data, P, Q} can be on disk when the span retry loop takes
// over. For every synchronous-parity mode and every member role, one
// member's write fails — fail-stop (the retry goes degraded) or a
// checksum mismatch met by the partial write's pre-read (the retry
// repairs the unit, then resyncParity rebuilds parity from the at-rest
// data). Afterwards the write must have been absorbed, the new bytes and
// every other byte of the array must read back exactly, and CheckParity
// must be clean after Flush: no divergence, silent or reported.
func TestPartialLandingRetry(t *testing.T) {
	const (
		unit    = 512
		stripes = 64
		stripe  = 5 // the stripe the faulted write lands in
		idx     = 2 // its data index within the stripe
	)
	for _, mode := range []core.Mode{core.Raid5, core.Raid6, core.Afraid6} {
		disks, roles := 5, []string{"data", "P"}
		if mode != core.Raid5 {
			disks = 6
		}
		if mode == core.Raid6 {
			roles = append(roles, "Q") // Afraid6 defers Q: no synchronous Q write
		}
		for _, kind := range []string{"fail-stop", "pre-read-mismatch"} {
			for _, role := range roles {
				t.Run(fmt.Sprintf("%v/%s/%s", mode, kind, role), func(t *testing.T) {
					backings := make([]core.BlockDevice, disks)
					for i := range backings {
						backings[i] = core.NewMemDevice(stripes * unit)
					}
					devs := Wrap(backings, 31)
					st, err := core.Open(Devices(devs), &core.MemNVRAM{}, core.Options{
						Mode: mode, StripeUnit: unit, Checksums: true, DisableScrubber: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					geo := st.Geometry()
					ref := make([]byte, st.Capacity())
					rand.New(rand.NewSource(int64(mode))).Read(ref)
					if _, err := st.WriteAt(ref, 0); err != nil {
						t.Fatal(err)
					}
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}

					victim := geo.DataDisk(stripe, idx)
					switch role {
					case "P":
						victim = geo.ParityDisk(stripe)
					case "Q":
						victim = geo.QDisk(stripe)
					}
					inUnit := InRange(geo.DiskOffset(stripe), unit)
					if kind == "fail-stop" {
						devs[victim].AddRule(Rule{When: All(Writes(), inUnit), Do: FailStop(), Max: 1})
					} else {
						// The read-modify-write reads the victim's unit once to
						// compute the delta; the second read is the pre-read of
						// its partial write, which the flip must corrupt.
						reads := 0
						devs[victim].AddRule(Rule{When: func(op Op, rng *rand.Rand) bool {
							if op.Write || !inUnit(op, rng) {
								return false
							}
							reads++
							return reads == 2
						}, Do: FlipBit(), Max: 1})
					}

					off := stripe*geo.StripeDataBytes() + idx*unit + unit/4
					fresh := bytes.Repeat([]byte{0xA5}, unit/2)
					if _, err := st.WriteAt(fresh, off); err != nil {
						t.Fatalf("faulted write not absorbed: %v", err)
					}
					copy(ref[off:], fresh)

					if kind == "fail-stop" {
						if dead := st.DeadDisks(); !slices.Equal(dead, []int{victim}) {
							t.Fatalf("dead disks %v, want [%d]: the fault did not fire", dead, victim)
						}
						rep, err := st.RepairDisk(victim, core.NewMemDevice(stripes*unit))
						if err != nil {
							t.Fatal(err)
						}
						if len(rep.Lost) != 0 {
							t.Fatalf("repair lost %v; the stripe was never unprotected", rep.Lost)
						}
					} else {
						cs := st.Stats()
						if cs.ChecksumDetected == 0 || cs.ChecksumRepaired == 0 || cs.ChecksumLost != 0 {
							t.Fatalf("checksum stats %d detected / %d repaired / %d lost, want a repaired mismatch",
								cs.ChecksumDetected, cs.ChecksumRepaired, cs.ChecksumLost)
						}
					}

					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
					if bad, err := st.CheckParity(); err != nil || len(bad) != 0 {
						t.Fatalf("CheckParity after the retried write: bad %v, err %v", bad, err)
					}
					got := make([]byte, len(ref))
					if _, err := st.ReadAt(got, 0); err != nil {
						t.Fatalf("read back: %v", err)
					}
					if i := firstDiff(got, ref); i >= 0 {
						t.Fatalf("byte %d diverges (stripe %d)", i, int64(i)/geo.StripeDataBytes())
					}
				})
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
