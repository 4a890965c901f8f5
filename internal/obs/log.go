package obs

import (
	"context"
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// logger holds the process logger; swapped atomically so tests can
// capture output without racing live handlers.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
}

// Log returns the process-wide structured logger. Every line is one
// JSON object; handlers attach the request ID via LogWith so a single
// X-Request-ID stitches proxy and backend logs together.
func Log() *slog.Logger { return logger.Load() }

// SetLogOutput points the default JSON logger at w.
func SetLogOutput(w io.Writer) {
	logger.Store(slog.New(slog.NewJSONHandler(w, nil)))
}

// LogWith returns the process logger annotated with the context's
// request ID (if any) — the one call sites use inside handlers.
func LogWith(ctx context.Context) *slog.Logger {
	l := Log()
	if id := RequestIDFrom(ctx); id != "" {
		l = l.With(slog.String("request_id", id))
	}
	return l
}
