package lists

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// SaveIndex is the checkpoint's save: it writes the dataset an overlay
// serves — base files and delta merged — to tuplePath and listPath,
// byte for byte what SaveDataset would write from the same tuples, but
// without sorting anything or holding a tuple slice. The base lists are
// already in order and the delta lists are too, so each list streams
// through a merge; a list no write has touched, and every run of tuple
// records between two touched ids, is copied from the base files as it
// stands. Memory is the two writers' chunks and a read scratch, whatever
// the size of the base.
//
// The overlay must not change during the call: hand in a Freeze copy
// unless writers are excluded some other way. Its base must be a
// DiskIndex, whose files the merge reads.
func SaveIndex(tuplePath, listPath string, ov *Overlay) (SaveIndexStats, error) {
	disk, ok := ov.base.(*DiskIndex)
	if !ok {
		return SaveIndexStats{}, fmt.Errorf("lists: SaveIndex needs an overlay over a DiskIndex, not a %T", ov.base)
	}
	var st SaveIndexStats
	tupleErr := make(chan error, 1)
	go func() { tupleErr <- ov.saveTuples(tuplePath, disk, &st) }()
	listErr := ov.saveLists(listPath, disk, &st)
	return st, savedBoth(tuplePath, listPath, <-tupleErr, listErr)
}

// SaveIndexStats says how much of one SaveIndex call's output was copied
// from the base files as encoded and how much had to be produced.
type SaveIndexStats struct {
	// ListsCopied counts untouched lists, ListsMerged the rest.
	ListsCopied, ListsMerged int
	// RecordsCopied counts tuple records taken from the base file,
	// RecordsEncoded those encoded from a vector (the overlay's own
	// versions, tombstones included).
	RecordsCopied, RecordsEncoded int
}

// readScratch is what the base files are read through.
const readScratch = 64 << 10

// saveTuples writes the tuple file: the overlay's version where it has
// one, the base's record otherwise.
func (ov *Overlay) saveTuples(path string, disk *DiskIndex, st *SaveIndexStats) error {
	size := func(id int) int {
		switch {
		case id >= ov.baseN:
			return storage.RecordBytes(len(ov.added[id-ov.baseN]), ov.m)
		case ov.overridden(id):
			return storage.RecordBytes(len(ov.over[id].t), ov.m)
		}
		return disk.tf.RecordSize(id)
	}
	return storage.WriteTupleRecords(path, ov.NumTuples(), ov.m, size, func(out *storage.TupleSink) error {
		buf := make([]byte, readScratch)
		for id := 0; id < ov.baseN; {
			if ov.overridden(id) {
				out.Tuple(ov.over[id].t)
				st.RecordsEncoded++
				id++
				continue
			}
			end := id + 1
			for end < ov.baseN && !ov.overridden(end) {
				end++
			}
			if err := disk.tf.RawRecords(id, end, buf, out.Raw); err != nil {
				return err
			}
			st.RecordsCopied += end - id
			id = end
		}
		for _, t := range ov.added {
			out.Tuple(t)
		}
		st.RecordsEncoded += len(ov.added)
		return nil
	})
}

// saveLists writes the list file: every dimension with a live posting,
// in ascending order.
func (ov *Overlay) saveLists(path string, disk *DiskIndex, st *SaveIndexStats) error {
	// Counted first: growing two slices to a text vocabulary's length by
	// append costs several times their final size in garbage.
	populated := 0
	for d := 0; d < ov.m; d++ {
		if ov.ListLen(d) > 0 {
			populated++
		}
	}
	dims, counts := make([]int, 0, populated), make([]int, 0, populated)
	for d := 0; d < ov.m; d++ {
		if n := ov.ListLen(d); n > 0 {
			dims, counts = append(dims, d), append(counts, n)
		}
	}
	buf := make([]byte, readScratch)
	return storage.WriteListFile(path, ov.m, dims, counts, func(i int, out *storage.ListSink) error {
		d := dims[i]
		pl := ov.delta[d]
		if pl.Len() == 0 && ov.deadPerDim[d] == 0 {
			st.ListsCopied++
			return disk.lf.RawPostings(d, buf, out.Raw)
		}
		st.ListsMerged++
		mg := listMerge{out: out, ov: ov, pl: pl}
		if err := disk.lf.RawPostings(d, buf, mg.base); err != nil {
			return err
		}
		out.Append(pl.IDs[mg.next:], pl.Vals[mg.next:])
		return nil
	})
}

// listMerge merges one base list, as encoded in the list file, with the
// dimension's delta list: tombstoned base postings drop out, delta
// postings go in where the bulk-load sort would have put them (ascending
// SortKey, then ascending id), and the live base postings between are
// passed on still encoded, a run at a time.
type listMerge struct {
	out  *storage.ListSink
	ov   *Overlay
	pl   PostingList
	next int // first delta posting not yet written
}

const postingBytes = 12 // uint32 id + float64 value, as storage encodes one

// base takes the next piece of the base list.
func (mg *listMerge) base(raw []byte) {
	run := 0 // raw[run:at] is live and not yet written
	for at := 0; at < len(raw); at += postingBytes {
		id := int32(binary.LittleEndian.Uint32(raw[at:]))
		if mg.ov.overridden(int(id)) {
			mg.out.Raw(raw[run:at])
			run = at + postingBytes
			continue
		}
		if mg.next == mg.pl.Len() {
			continue
		}
		key := bitsKey(binary.LittleEndian.Uint64(raw[at+4:]))
		from := mg.next
		for mg.next < mg.pl.Len() {
			if dk := SortKey(mg.pl.Vals[mg.next]); dk > key || dk == key && mg.pl.IDs[mg.next] > id {
				break
			}
			mg.next++
		}
		if mg.next > from {
			mg.out.Raw(raw[run:at])
			run = at
			mg.out.Append(mg.pl.IDs[from:mg.next], mg.pl.Vals[from:mg.next])
		}
	}
	mg.out.Raw(raw[run:])
}
