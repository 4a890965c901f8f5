package lists

import (
	"repro/internal/storage"
	"repro/internal/vec"
)

// Materialize decodes the live dataset view onto the heap: a slice of
// NumTuples() tuples with nil at tombstoned slots, in id order. It is
// what a checkpoint used to hand to SaveDataset, and stays as the
// reference SaveIndex is held to: SaveDataset(Materialize()) and
// SaveIndex(Freeze()) must write the same bytes. Base reads are charged
// to a throwaway meter.
func (ov *Overlay) Materialize() []vec.Sparse {
	base := ov.base.WithStats(&storage.IOStats{})
	out := make([]vec.Sparse, ov.NumTuples())
	for id := 0; id < ov.baseN; id++ {
		if e, ok := ov.over[id]; ok {
			if !e.dead {
				out[id] = e.t
			}
			continue
		}
		if t := base.Tuple(id); len(t) > 0 {
			out[id] = t // empty base records are prior-compaction tombstones
		}
	}
	copy(out[ov.baseN:], ov.added)
	return out
}
