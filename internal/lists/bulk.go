package lists

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// The bulk-load kernel: every way this package turns tuples into sorted
// inverted lists — an in-memory index (BuildColumnar), the row form
// (BuildPostings) and the dataset files (SaveDataset: irgen and shard
// builds) — carves and sorts through the code in this file, so the
// in-memory and on-disk list orders cannot diverge. A checkpoint rewrite
// does not come through here: its lists are already sorted, and
// SaveIndex merges them.
//
// A posting is held as a sort key plus its tuple id. The key is the
// coordinate's IEEE-754 bits mapped so that unsigned ascending key order
// is descending coordinate order; ids enter every list in ascending
// order (carve walks the tuples in id order). Long lists are ranked the
// way topk ranks candidate rows: an LSD radix sort on the top 32 bits of
// the key (sign, exponent and 20 mantissa bits; coordinates in (0,1]
// share their top byte, so three passes in practice) carries positions,
// the full keys and ids are gathered in that order, and the runs that tie
// on the prefix — stably ranked, so ids still ascend — are sorted by
// comparison on (key, id). Short lists take that comparison sort alone.
// Either way a list comes out in "descending value, ties by ascending
// id" order.

// radixCutover is the list length from which the radix sort's fixed cost
// (four 256-bucket histograms) is cheaper than a comparison sort.
const radixCutover = 64

// SortKey maps a value to its key: ascending keys are descending values.
// Flipping the sign bit of a non-negative float (or every bit of a
// negative one) makes unsigned order equal numeric order; the final
// complement reverses it. -0 and +0 get distinct keys.
func SortKey(v float64) uint64 { return bitsKey(math.Float64bits(v)) }

// bitsKey is SortKey of the value whose IEEE bits are b.
func bitsKey(b uint64) uint64 { return ^(b ^ (uint64(int64(b)>>63) | 1<<63)) }

// keyValue inverts SortKey.
func keyValue(k uint64) float64 {
	u := ^k
	return math.Float64frombits(u ^ (uint64(int64(^u)>>63) | 1<<63))
}

// bulk holds all inverted lists of a dataset in one allocation per
// column: list i belongs to dimension dims[i] and occupies
// [off[i], off[i+1]) of keys and ids.
type bulk struct {
	dims []int
	off  []int
	keys []uint64
	ids  []int32
}

// carve counts every dimension's frequency, gives each populated
// dimension its exact extent and scatters the postings into it, ids
// ascending within a list. Nothing is sorted yet.
func carve(tuples []vec.Sparse) *bulk {
	var next []int // per dimension: the frequency, then the fill position
	total := 0
	for _, t := range tuples {
		for _, e := range t {
			if e.Dim >= len(next) {
				next = append(next, make([]int, e.Dim+1-len(next))...)
			}
			next[e.Dim]++
		}
		total += len(t)
	}
	b := &bulk{off: []int{0}, keys: make([]uint64, total), ids: make([]int32, total)}
	for d, n := range next {
		next[d] = b.off[len(b.off)-1]
		if n > 0 {
			b.dims = append(b.dims, d)
			b.off = append(b.off, next[d]+n)
		}
	}
	for id, t := range tuples {
		for _, e := range t {
			at := next[e.Dim]
			b.keys[at], b.ids[at] = SortKey(e.Val), int32(id)
			next[e.Dim] = at + 1
		}
	}
	return b
}

// counts returns the list lengths, parallel to dims.
func (b *bulk) counts() []int {
	c := make([]int, len(b.dims))
	for i := range c {
		c[i] = b.off[i+1] - b.off[i]
	}
	return c
}

// longest returns the length of the longest list.
func (b *bulk) longest() int {
	n := 0
	for i := range b.dims {
		n = max(n, b.off[i+1]-b.off[i])
	}
	return n
}

// list returns list i's key and id columns, capped at its extent so an
// append through either cannot reach the next list.
func (b *bulk) list(i int) ([]uint64, []int32) {
	lo, hi := b.off[i], b.off[i+1]
	return b.keys[lo:hi:hi], b.ids[lo:hi:hi]
}

// sortLists sorts every list on workers goroutines, each with its own
// scratch, sized once to the longest list. Lists are claimed in
// ascending order and each finished index is sent on the returned
// channel, which is closed after the last one; its buffer holds every
// send, so a consumer that stops reading strands no worker.
func (b *bulk) sortLists(workers int) <-chan int {
	longest := b.longest()
	workers = max(1, min(workers, len(b.dims)))
	sorted := make(chan int, len(b.dims))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sc sortScratch
			if longest >= radixCutover {
				sc.grow(longest)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.dims) {
					return
				}
				keys, ids := b.list(i)
				sc.sort(keys, ids)
				sorted <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(sorted)
	}()
	return sorted
}

// sortAll sorts every list on GOMAXPROCS workers and waits for them.
func (b *bulk) sortAll() {
	for range b.sortLists(runtime.GOMAXPROCS(0)) {
	}
}

// sortScratch is one worker's reusable memory: the radix keys and the
// positions they carry, each with the kernel's second buffer, the rest
// of each posting packed in one word for the gather, and the comparison
// sort's pairs.
type sortScratch struct {
	prefix, prefixBuf []uint32
	pos, posBuf       []int32
	rest              []uint64 // the key's low 32 bits, then the id
	pairs             []keyID
}

// grow sizes the radix scratch for lists of up to n postings.
func (sc *sortScratch) grow(n int) {
	sc.prefix, sc.prefixBuf = make([]uint32, n), make([]uint32, n)
	sc.pos, sc.posBuf = make([]int32, n), make([]int32, n)
	sc.rest = make([]uint64, n)
}

type keyID struct {
	key uint64
	id  int32
}

// sort orders one list by ascending key, ties by ascending id; ids must
// come in ascending.
func (sc *sortScratch) sort(keys []uint64, ids []int32) {
	n := len(keys)
	if n < radixCutover {
		sc.compare(keys, ids)
		return
	}
	prefix, pos, rest := sc.prefix[:n], sc.pos[:n], sc.rest[:n]
	for i, k := range keys {
		prefix[i], pos[i] = uint32(k>>32), int32(i)
		rest[i] = k<<32 | uint64(uint32(ids[i]))
	}
	RadixSort(prefix, pos, sc.prefixBuf[:n], sc.posBuf[:n])
	// One random read a posting: its packed rest. The runs that tie on
	// the prefix are ranked in a pass of their own, which keeps this
	// loop's reads independent of one another.
	for j, p := range pos {
		r := rest[p]
		keys[j], ids[j] = uint64(prefix[j])<<32|r>>32, int32(uint32(r))
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && prefix[hi] == prefix[lo] {
			hi++
		}
		if hi-lo > 1 {
			sc.compare(keys[lo:hi], ids[lo:hi])
		}
		lo = hi
	}
}

// compare sorts a list, or a run of one, by (key, id) through pairs.
func (sc *sortScratch) compare(keys []uint64, ids []int32) {
	sc.pairs = sc.pairs[:0]
	for i, k := range keys {
		sc.pairs = append(sc.pairs, keyID{k, ids[i]})
	}
	slices.SortFunc(sc.pairs, func(a, b keyID) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, p := range sc.pairs {
		keys[i], ids[i] = p.key, p.id
	}
}

// RadixSort sorts keys into ascending order, stably, carrying vals along:
// an LSD radix sort, one byte per pass, that skips the bytes on which
// every key agrees. bufK and bufV are its second buffers, at least
// len(keys) long; the result ends up in keys and vals. It is the one
// radix kernel of the repo, and both its callers rank the same way: on
// the top 32 bits of a SortKey, the ties on those settled by comparison
// — the bulk load its inverted lists, topk its candidate rows.
func RadixSort(keys []uint32, vals []int32, bufK []uint32, bufV []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var hist [4][256]int32
	for _, k := range keys {
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
	}
	srcK, srcV, dstK, dstV := keys, vals, bufK[:n], bufV[:n]
	for d := range hist {
		shift := uint(8 * d)
		h := &hist[d]
		if int(h[byte(srcK[0]>>shift)]) == n {
			continue // every key agrees on this byte
		}
		at := int32(0)
		for v, c := range h {
			h[v], at = at, at+c
		}
		for i, k := range srcK {
			p := &h[byte(k>>shift)]
			dstK[*p], dstV[*p] = k, srcV[i]
			*p++
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
