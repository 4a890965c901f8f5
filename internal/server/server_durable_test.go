package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// TestStatsDurableBlocks: a durable engine's /stats reports the WAL and
// overlay-delta counters, they track writes, and a server restart on
// the same directory shows the replay in the reopened engine's stats.
func TestStatsDurableBlocks(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.OpenDir(dir, 64, engine.Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := FromEngine(eng)
	ts := httptest.NewServer(srv.Handler())

	getStats := func(url string) StatsResponse {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := getStats(ts.URL)
	if st.WAL == nil || st.Overlay == nil {
		t.Fatalf("durable /stats missing wal/overlay blocks: %+v", st)
	}
	if st.WAL.SyncPolicy != "batch" || st.WAL.NextSeq != 1 {
		t.Fatalf("fresh wal stats %+v", st.WAL)
	}

	var mr MutateResponse
	resp := post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.42}}},
	}}, &mr)
	if resp.StatusCode != http.StatusOK || mr.Applied != 1 {
		t.Fatalf("update status %d resp %+v", resp.StatusCode, mr)
	}
	st = getStats(ts.URL)
	if st.WAL.Appends != 1 || st.WAL.NextSeq != 2 || st.WAL.LogBytes <= 8 {
		t.Fatalf("post-write wal stats %+v", st.WAL)
	}
	if st.Overlay.Added != 1 || st.Overlay.DeltaPostings != 1 {
		t.Fatalf("post-write overlay stats %+v", st.Overlay)
	}

	// Restart the server on the same directory: the write is replayed.
	ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := engine.OpenDir(dir, 64, engine.Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	ts2 := httptest.NewServer(FromEngine(eng2).Handler())
	defer ts2.Close()
	st = getStats(ts2.URL)
	if st.WAL.ReplayedRecords != 1 || st.WAL.ReplayedOps != 1 {
		t.Fatalf("post-restart wal stats %+v", st.WAL)
	}
	if st.Overlay.Added != 1 {
		t.Fatalf("post-restart overlay stats %+v", st.Overlay)
	}

	// A writable in-memory engine writes through an overlay too, but keeps
	// no log: it reports the overlay block and no wal block.
	mem := httptest.NewServer(FromEngine(engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})).Handler())
	defer mem.Close()
	if st := getStats(mem.URL); st.WAL != nil || st.Overlay == nil {
		t.Fatalf("in-memory /stats: wal %+v overlay %+v, want an overlay and no wal", st.WAL, st.Overlay)
	}
}
