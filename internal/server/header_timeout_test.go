package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/obs"
)

// TestHeaderTimeout: the http.Server both daemons listen with (built by
// obs.NewServer) gives a connection ten seconds to finish its request
// headers and no deadline for the body. Driven at a shortened deadline:
// a client that sends half a request line and stalls is hung up on,
// while an /update whose body arrives in slow pieces over several
// deadlines still applies.
func TestHeaderTimeout(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	hs := obs.NewServer("127.0.0.1:0", FromEngine(eng).Handler())
	if hs.ReadHeaderTimeout != 10*time.Second || hs.ReadTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout %v, ReadTimeout %v; want 10s and none", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
	const deadline = 100 * time.Millisecond
	hs.ReadHeaderTimeout = deadline
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second)) // fail, don't hang
		return c
	}

	stalled := dial()
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /upd"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, stalled); err != nil { // returns nil at EOF
		t.Fatalf("half a request line was not hung up on: %v", err)
	}

	slow := dial()
	defer slow.Close()
	body := `{"ops":[{"tuple":[{"dim":0,"val":0.5}]}]}`
	fmt.Fprintf(slow, "POST /update HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	for i := 0; i < len(body); i += 10 {
		time.Sleep(deadline / 2) // the whole body takes ~2.5 deadlines
		if _, err := io.WriteString(slow, body[i:min(i+10, len(body))]); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(slow), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || eng.N() != len(tuples)+1 {
		t.Fatalf("slow /update: status %d, %d tuples; want 200 and %d", resp.StatusCode, eng.N(), len(tuples)+1)
	}
}
