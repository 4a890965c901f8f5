package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRequestIDMinted(t *testing.T) {
	var seenCtx, seenHeader string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenCtx = RequestIDFrom(r.Context())
		seenHeader = r.Header.Get(RequestIDHeader)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topk", nil))
	id := rec.Header().Get(RequestIDHeader)
	if id == "" || len(id) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", id)
	}
	if seenCtx != id || seenHeader != id {
		t.Fatalf("context=%q header=%q response=%q not all equal", seenCtx, seenHeader, id)
	}
}

func TestRequestIDAdopted(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	req := httptest.NewRequest("GET", "/topk", nil)
	req.Header.Set(RequestIDHeader, "client-chose-this")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-chose-this" || rec.Header().Get(RequestIDHeader) != "client-chose-this" {
		t.Fatalf("inbound ID not adopted: ctx=%q hdr=%q", seen, rec.Header().Get(RequestIDHeader))
	}
}

func TestRequestIDRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "ctl\x01byte", "bad\nnewline"} {
		h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		req := httptest.NewRequest("GET", "/", nil)
		if bad != "" {
			req.Header["X-Request-Id"] = []string{bad}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := rec.Header().Get(RequestIDHeader); got == bad || got == "" {
			t.Errorf("garbage ID %q not replaced (got %q)", bad, got)
		}
	}
}

func TestAccessLogEmitsJSON(t *testing.T) {
	var buf bytes.Buffer
	SetLogOutput(&buf)
	defer SetLogOutput(os.Stderr)

	h := RequestID(AccessLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/teapot", nil))

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON object: %v\n%s", err, buf.String())
	}
	if line["msg"] != "http_request" || line["path"] != "/teapot" {
		t.Fatalf("unexpected line: %v", line)
	}
	if line["status"] != float64(http.StatusTeapot) || line["bytes"] != float64(len("short and stout")) {
		t.Fatalf("status/bytes wrong: %v", line)
	}
	if line["request_id"] != rec.Header().Get(RequestIDHeader) {
		t.Fatalf("request_id %v != header %q", line["request_id"], rec.Header().Get(RequestIDHeader))
	}
}

func TestSlowLogRecordsAndWraps(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 3)
	if l.Record(SlowEntry{Endpoint: "topk", DurationMs: 5}) {
		t.Fatal("under-threshold entry recorded")
	}
	for i := 0; i < 5; i++ {
		if !l.Record(SlowEntry{Endpoint: "topk", K: i, DurationMs: 20}) {
			t.Fatalf("entry %d not recorded", i)
		}
	}
	got, total := l.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want ring capacity 3", len(got))
	}
	// Newest first: K values 4, 3, 2.
	for i, wantK := range []int{4, 3, 2} {
		if got[i].K != wantK {
			t.Fatalf("entry %d has K=%d, want %d", i, got[i].K, wantK)
		}
	}
}

func TestSlowLogDisabled(t *testing.T) {
	var nilLog *SlowLog
	if nilLog.Record(SlowEntry{DurationMs: 1e9}) {
		t.Fatal("nil slow log recorded")
	}
	if e, n := nilLog.Snapshot(); e != nil || n != 0 {
		t.Fatal("nil slow log snapshot not empty")
	}
	off := NewSlowLog(0, 4)
	if off.Record(SlowEntry{DurationMs: 1e9}) {
		t.Fatal("disabled slow log recorded")
	}
}
