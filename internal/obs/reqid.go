package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the propagation header: accepted inbound,
// echoed on every response, forwarded by the proxy to the backend.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds what we accept from the wire; anything
// longer (or containing non-token bytes) is replaced, not trusted —
// the ID lands in logs and the slow log verbatim.
const maxRequestIDLen = 64

type reqIDKey struct{}

// WithRequestID stores id in the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// reqSeq breaks ties if crypto/rand ever fails (it does not on any
// supported platform, but an ID must still be unique-ish).
var reqSeq atomic.Uint64

// NewRequestID mints a 16-hex-digit random ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := reqSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts printable-ASCII tokens up to maxRequestIDLen.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// RequestID is the tracing middleware: it adopts a valid inbound
// X-Request-ID or mints one, sets it on the response, rewrites the
// inbound header (so a proxy forwarding r's headers propagates the
// same ID to its backend), and stores it in the request context for
// LogWith and the slow log.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = NewRequestID()
			r.Header.Set(RequestIDHeader, id)
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}

// StatusRecorder captures the status code and body size written
// through a ResponseWriter; both the access log and the per-endpoint
// error counters key off it.
type StatusRecorder struct {
	http.ResponseWriter
	Code  int
	Bytes int64
}

// NewStatusRecorder wraps w with Code preset to 200 (the implicit
// status when a handler writes without calling WriteHeader).
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Code: http.StatusOK}
}

// WriteHeader records the status and forwards it.
func (s *StatusRecorder) WriteHeader(code int) {
	s.Code = code
	s.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes and forwards them.
func (s *StatusRecorder) Write(p []byte) (int, error) {
	n, err := s.ResponseWriter.Write(p)
	s.Bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it streams.
func (s *StatusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog emits one structured line per request (method, path,
// status, bytes, duration, request ID). The daemons wrap their whole
// mux with it; library tests do not, so suites stay quiet. AccessLog
// sits OUTSIDE the RequestID middleware, so the ID is read back from
// the inbound header after serving — RequestID rewrites it there, and
// the shallow request copy it passes down shares the header map.
func AccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := NewStatusRecorder(w)
		next.ServeHTTP(rec, r)
		id := RequestIDFrom(r.Context())
		if id == "" {
			id = r.Header.Get(RequestIDHeader)
		}
		Log().Info("http_request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.Code,
			"bytes", rec.Bytes,
			"duration_ms", float64(time.Since(t0).Microseconds())/1000.0,
			"request_id", id,
		)
	})
}

// ReadHeaderTimeout is how long a connection may take to deliver a
// request's headers before the daemons drop it.
const ReadHeaderTimeout = 10 * time.Second

// NewServer is the http.Server irserver and irproxy listen with: the
// handler behind AccessLog, and a deadline on the request headers, so a
// client that stalls mid-header cannot pin a connection and its
// goroutine forever. Deliberately no ReadTimeout: that one covers the
// body too, and would cut the replication stream and slow, large
// /update batches.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: AccessLog(h), ReadHeaderTimeout: ReadHeaderTimeout}
}

// ServePprof exposes net/http/pprof on its own listener, so the
// profiling surface never shares a port with the public API; it returns
// only if the listener fails. Explicit registrations on a private mux —
// a blank import of net/http/pprof would mutate http.DefaultServeMux for
// the whole process.
func ServePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		Log().Error("pprof_listen_failed", "addr", addr, "error", err.Error())
	}
}
