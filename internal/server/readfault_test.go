package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// readLog is an index that records the tuples the query path reads.
type readLog struct {
	lists.Index
	ids map[int]bool
}

func (r *readLog) Project(id int, dims []int, dst []float64) error {
	r.ids[id] = true
	return r.Index.Project(id, dims, dst)
}

// fileWord reads the little-endian uint64 at off of path.
func fileWord(t *testing.T, path string, off int64) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [8]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

// patchWord overwrites the little-endian uint32 at off of path with v.
func patchWord(t *testing.T, path string, off int64, v uint32) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, v), off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFaultFailsOneQuery: a generation file that fails a read fails
// exactly the queries that read it, on every read route, as a counted 500
// carrying the read's error — never a dropped connection, a dead process,
// a cache admission or a wrong answer — and leaves the engine writable.
// The dataset splits into two halves of the ids over disjoint
// dimensions, so a query on the first half reads none of the damaged
// records, nor any page of the tuple file past the second half's start,
// and must still answer. A regression on the batch rows or the
// truncation row kills the test binary (a panic, SIGBUS) rather than
// failing it.
func TestReadFaultFailsOneQuery(t *testing.T) {
	const n, m, k = 2000, 6, 5
	rng := rand.New(rand.NewSource(26))
	tuples := make([]vec.Sparse, n)
	for id := range tuples {
		first := 3 * (2 * id / n) // ids below n/2 live on dims 0–2, the rest on 3–5
		for d := first; d < first+3; d++ {
			tuples[id] = append(tuples[id], vec.Entry{Dim: d, Val: 0.01 + 0.99*rng.Float64()})
		}
	}
	lost := QueryRequest{Dims: []int{3, 4, 5}, Weights: []float64{0.9, 0.4, 0.7}, K: k, Phi: 2, Method: "cpt"}
	healthy := QueryRequest{Dims: []int{0, 1, 2}, Weights: []float64{0.9, 0.4, 0.7}, K: k, Phi: 2, Method: "cpt"}

	// What the lost query reads: the tuples its scan meets, then the ones
	// only its region phases pull (Phase 3 resumes the scan).
	scanned, phase3 := map[int]bool{}, map[int]bool{}
	q := vec.MustQuery(lost.Dims, lost.Weights)
	rec := &readLog{Index: lists.NewMemIndex(tuples, m), ids: scanned}
	ta := topk.New(rec, q, k, topk.BestList)
	if err := ta.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec.ids = map[int]bool{}
	if _, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT, Phi: lost.Phi}); err != nil {
		t.Fatal(err)
	}
	for id := range rec.ids {
		if !scanned[id] {
			phase3[id] = true
		}
	}
	if len(phase3) == 0 {
		t.Fatal("the lost query's region phases pull no tuple of their own")
	}

	ranked := []string{"topk", "batchtopk"}
	analyses := []string{"analyze", "batchanalyze"}
	// nnz is the first word of a record, which the offsets table after
	// the 16-byte header locates.
	corruptRecords := func(ids map[int]bool) func(t *testing.T, tp, lp string) string {
		return func(t *testing.T, tp, lp string) string {
			for id := range ids {
				patchWord(t, tp, int64(fileWord(t, tp, 16+8*int64(id))), 1<<30)
			}
			return "corrupt (nnz="
		}
	}
	cases := []struct {
		name       string
		corrupt    func(t *testing.T, tp, lp string) (inError string)
		fail, pass []string // the routes the lost query fails and answers on
		underOpen  bool     // corrupt runs after the engine has opened the files
	}{
		{"records the scan reads", corruptRecords(scanned), append(ranked, analyses...), nil, false},
		// The scan is intact; Phase 3, resuming it, meets the damage.
		{"records only Phase 3 reads", corruptRecords(phase3), analyses, ranked, false},
		{"posting id past the last tuple", func(t *testing.T, tp, lp string) string {
			// The directory after the 16-byte header holds (dim, count,
			// offset) per list, dim 0 first: the first posting of dim 3's
			// list is the first thing the scan reads from it.
			patchWord(t, lp, int64(fileWord(t, lp, 16+16*3+8)), n+7)
			return fmt.Sprintf("posting id %d", n+7)
		}, append(ranked, analyses...), nil, false},
		// The tuple file is cut short under the open engine, at the first
		// page boundary past where the second half's records start: the
		// pages of the mapping past the cut fault when read.
		{"tuple file cut short under the engine", func(t *testing.T, tp, lp string) string {
			cut := (int64(fileWord(t, tp, 16+8*n/2)) + 4095) &^ 4095
			if err := os.Truncate(tp, cut); err != nil {
				t.Fatal(err)
			}
			return "read fault at offset"
		}, append(ranked, analyses...), nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
			if err := lists.SaveDataset(tp, lp, tuples, m); err != nil {
				t.Fatal(err)
			}
			var want string
			if !c.underOpen {
				want = c.corrupt(t, tp, lp)
			}
			eng, err := engine.Open(tp, lp, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if c.underOpen {
				want = c.corrupt(t, tp, lp)
			}
			t.Cleanup(func() { eng.Close() })
			ts := httptest.NewServer(FromEngine(eng).Handler())
			t.Cleanup(ts.Close)

			call := func(route string, req QueryRequest) (int, string) {
				var body any = req
				if strings.HasPrefix(route, "batch") {
					body = BatchAnalyzeRequest{Queries: []QueryRequest{req}}
				}
				raw, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/"+route, "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("/%s: %v", route, err)
				}
				defer resp.Body.Close()
				out, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, string(out)
			}
			for _, route := range c.fail {
				before := mErrors.Value(route)
				if code, body := call(route, lost); code != http.StatusInternalServerError || !strings.Contains(body, want) {
					t.Errorf("/%s over the damaged files: %d %s, want 500 with %q", route, code, body, want)
				}
				if got := mErrors.Value(route) - before; got != 1 {
					t.Errorf("/%s: ir_http_errors_total moved by %d, want 1", route, got)
				}
			}
			if cs := eng.CacheStats(); cs.Entries != 0 {
				t.Errorf("the failed queries left %d cache entries", cs.Entries)
			}
			for _, route := range c.pass {
				if code, body := call(route, lost); code != http.StatusOK {
					t.Errorf("/%s reads no damaged record, yet: %d %s", route, code, body)
				}
			}
			for _, route := range append(ranked, analyses...) {
				if code, body := call(route, healthy); code != http.StatusOK {
					t.Errorf("/%s on the healthy group: %d %s", route, code, body)
				}
			}
			// The failed queries released the read side of the engine's
			// lock: a write, which takes the other side, goes through.
			raw, _ := json.Marshal(UpdateRequest{Ops: []UpdateOpJSON{{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}}}})
			resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/update after the failed queries: %d", resp.StatusCode)
			}
		})
	}
}
