package core

import (
	"errors"
	"fmt"
)

// DiskError wraps an I/O error from one member disk with the disk's
// index, so the degraded-mode machinery can tell *which* member failed.
// Every device read and write in the store goes through devRead/devWrite
// below, which produce DiskErrors; the foreground paths use
// errors.As + errors.Is(ErrDeviceFailed) on them to absorb fail-stop
// failures (including wrapped errors injected by internal/fault) and
// retry the operation degraded.
type DiskError struct {
	Disk int
	Op   string // "read" or "write"
	Err  error
}

// Error implements error.
func (e *DiskError) Error() string {
	return fmt.Sprintf("core: disk %d %s: %v", e.Disk, e.Op, e.Err)
}

// Unwrap exposes the underlying device error to errors.Is/As.
func (e *DiskError) Unwrap() error { return e.Err }

// devRead reads from member disk i, wrapping failures with the index.
// With Options.Checksums the unit's contents are verified against its
// checksum slot and a mismatch surfaces as *ChecksumError (see
// checksum.go).
func (s *Store) devRead(i int, p []byte, off int64) error {
	if s.opts.Checksums {
		return s.devReadVerified(i, p, off)
	}
	if _, err := s.devs[i].ReadAt(p, off); err != nil {
		return &DiskError{Disk: i, Op: "read", Err: err}
	}
	return nil
}

// devWrite writes to member disk i, wrapping failures with the index.
// With Options.Checksums the unit's checksum slot is refreshed from the
// in-memory contents, so corruption on the wire or the medium is caught
// by the next verified read.
func (s *Store) devWrite(i int, p []byte, off int64) error {
	if s.opts.Checksums {
		return s.devWriteChecksummed(i, p, off)
	}
	if _, err := s.devs[i].WriteAt(p, off); err != nil {
		return &DiskError{Disk: i, Op: "write", Err: err}
	}
	return nil
}

// absorbFailure inspects an error from a span operation and, when it is
// a member disk reporting fail-stop failure (anything wrapping
// ErrDeviceFailed — matched with errors.Is so injected errors wrapped by
// fault layers count), moves the store to degraded mode. It reports
// whether the failure was absorbed, in which case the caller may retry
// the span: reads reconstruct around the dead disk, writes switch to the
// synchronous degraded protocol.
func (s *Store) absorbFailure(err error) bool {
	var de *DiskError
	if !errors.As(err, &de) || !errors.Is(de.Err, ErrDeviceFailed) {
		return false
	}
	return s.FailDisk(de.Disk) == nil
}

// absorbRetry runs a stripe operation until it succeeds or the retry
// budget is spent. Between attempts it absorbs what the last attempt
// met: a member reporting fail-stop failure moves the store to degraded
// mode (absorbFailure), and a unit failing its checksum is repaired from
// redundancy (absorbMismatch) — a member failing inside that repair is
// absorbed the same way. An op that needs every member (whole) is not
// retried once the array is degraded; only RepairDisk can go on. Caller
// holds the stripe lock.
func (s *Store) absorbRetry(whole bool, op func() error) error {
	for tries := 0; ; tries++ {
		err := op()
		if err == nil || tries >= s.spanRetryBudget() {
			return err
		}
		retry, err := s.absorbMismatch(err)
		if retry {
			continue
		}
		if !s.absorbFailure(err) || whole {
			return err
		}
	}
}
