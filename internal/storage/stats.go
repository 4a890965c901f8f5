// Package storage provides the disk substrate of the reproduction: an
// external tuple file accessed at random (one fetch per evaluated
// candidate — the cost the paper's I/O charts measure) read from a
// mapping, inverted-list files consumed by sorted access, and explicit
// I/O accounting with a spinning-disk cost model so that the
// experiment harness can report I/O time comparable in shape to the
// paper's 2012 testbed. Accounting is logical: a list cursor's look
// ahead (ListCursor.Ahead) and the record prefetch it feeds
// (TupleFile.Prefetch) only overlap memory misses and charge nothing.
package storage

import (
	"fmt"
	"sync/atomic"
	"time"
)

// PageSize is the I/O unit for sequential list access, matching a common
// filesystem block.
const PageSize = 4096

// IOStats accumulates I/O counters. All storage components funnel their
// accesses through one IOStats so an experiment can be metered end to end.
// Counters are lock-free atomics, so many queries may charge one meter
// concurrently.
//
// A meter may be a child of another: reading the child observes only the
// charges made through it, and the parent ends up with them too — as
// they are made (Child), or in one addition per counter when the work
// they belong to is over (PerQuery, Flush). Concurrent servers give each
// query a PerQuery meter of the index-wide one, so per-query deltas stay
// exact, the global counters keep aggregating, and the queries in flight
// do not all write the one cache line the global counters share on every
// random access.
type IOStats struct {
	seqPages  atomic.Int64 // inverted-list pages fetched by sorted access
	randReads atomic.Int64 // tuple-file fetches by random access
	bytesRead atomic.Int64
	bypass    atomic.Int64 // tuple-record reads served from the mapping
	parent    *IOStats     // charged along with this meter, charge by charge
	total     *IOStats     // charged by Flush
	flushed   [4]int64     // what Flush has passed on: seq, rand, bytes, bypass
}

// Child returns a fresh meter that forwards every charge to s as it is
// made.
func (s *IOStats) Child() *IOStats { return &IOStats{parent: s} }

// PerQuery returns a fresh meter for one query: its charges reach s when
// the query ends and calls Flush.
func (s *IOStats) PerQuery() *IOStats { return &IOStats{total: s} }

// Flush adds to the meter PerQuery was called on whatever this one has
// been charged since the last Flush. It is the owner's call, made when
// nothing charges the meter any more; on any other meter it does nothing.
func (s *IOStats) Flush() {
	if s.total == nil {
		return
	}
	now := [4]int64{s.seqPages.Load(), s.randReads.Load(), s.bytesRead.Load(), s.bypass.Load()}
	for i, c := range []*atomic.Int64{&s.total.seqPages, &s.total.randReads, &s.total.bytesRead, &s.total.bypass} {
		if d := now[i] - s.flushed[i]; d != 0 {
			c.Add(d)
		}
	}
	s.flushed = now
}

// AddSeqPage records n sequential page fetches.
func (s *IOStats) AddSeqPage(n int) {
	s.seqPages.Add(int64(n))
	s.bytesRead.Add(int64(n) * PageSize)
	if s.parent != nil {
		s.parent.AddSeqPage(n)
	}
}

// AddRandRead records one random tuple fetch of the given byte size.
func (s *IOStats) AddRandRead(bytes int) {
	s.randReads.Add(1)
	s.bytesRead.Add(int64(bytes))
	if s.parent != nil {
		s.parent.AddRandRead(bytes)
	}
}

// AddBypass records n tuple-record reads served from the mapping (list
// pages are read with pread and not counted). It is physical-path
// bookkeeping only — the logical counters (AddSeqPage/AddRandRead) are
// charged separately, so the paper's cost model does not depend on it.
func (s *IOStats) AddBypass(n int) {
	s.bypass.Add(int64(n))
	if s.parent != nil {
		s.parent.AddBypass(n)
	}
}

// Bypasses returns the count of tuple-record reads served from the
// mapping.
func (s *IOStats) Bypasses() int64 { return s.bypass.Load() }

// Snapshot returns the current counter values.
func (s *IOStats) Snapshot() (seqPages, randReads, bytesRead int64) {
	return s.seqPages.Load(), s.randReads.Load(), s.bytesRead.Load()
}

// SeqPages returns the sequential page counter.
func (s *IOStats) SeqPages() int64 { return s.seqPages.Load() }

// RandReads returns the random read counter.
func (s *IOStats) RandReads() int64 { return s.randReads.Load() }

// Reset zeroes all counters (of this meter only; parents are untouched).
func (s *IOStats) Reset() {
	s.seqPages.Store(0)
	s.randReads.Store(0)
	s.bytesRead.Store(0)
	s.bypass.Store(0)
	s.flushed = [4]int64{}
}

func (s *IOStats) String() string {
	a, b, c := s.Snapshot()
	return fmt.Sprintf("io{seqPages=%d randReads=%d bytes=%d}", a, b, c)
}

// DiskModel converts I/O counts into modeled time. The defaults
// approximate the 2012-era server disk of the paper's testbed: a random
// access pays a seek+rotate penalty, sequential pages stream.
type DiskModel struct {
	SeqPage  time.Duration // cost of one sequential 4 KiB page
	RandRead time.Duration // cost of one random tuple fetch
}

// DefaultDiskModel is a 7200 RPM HDD: ~5 ms per random access, ~0.05 ms
// per sequential page (≈80 MB/s streaming).
var DefaultDiskModel = DiskModel{SeqPage: 50 * time.Microsecond, RandRead: 5 * time.Millisecond}

// Time converts counters into modeled elapsed I/O time.
func (m DiskModel) Time(seqPages, randReads int64) time.Duration {
	return time.Duration(seqPages)*m.SeqPage + time.Duration(randReads)*m.RandRead
}
