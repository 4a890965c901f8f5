//go:build goexperiment.synctest

package replication_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/replication"
)

// simNet is the in-memory network a cluster runs on inside a synctest
// bubble: replication links are net.Pipe pairs, the /cluster probes and
// client writes call the members' handlers directly, and a partition
// table decides which members reach which. A cut link fails at once —
// its live pipes are closed, later dials and requests are refused — so
// nothing ever waits on a black hole, and fake time only moves on the
// cluster's own timers.
type simNet struct {
	c *cluster

	mu    sync.Mutex
	cut   map[[2]int]bool
	lns   map[string]*simListener
	conns map[[2]int][]*simConn
}

func newSimNet(c *cluster) *simNet {
	return &simNet{c: c, cut: map[[2]int]bool{}, lns: map[string]*simListener{}, conns: map[[2]int][]*simConn{}}
}

// link is the unordered pair key of members i and j.
func link(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// setCut cuts (or heals) the link between members i and j; cutting
// closes the pipes that cross it.
func (n *simNet) setCut(i, j int, cut bool) {
	n.mu.Lock()
	k := link(i, j)
	var doomed []*simConn
	if cut {
		n.cut[k] = true
		doomed = n.conns[k]
		delete(n.conns, k)
	} else {
		delete(n.cut, k)
	}
	n.mu.Unlock()
	for _, c := range doomed {
		c.abort()
	}
}

// healAll clears the partition table.
func (n *simNet) healAll() {
	n.mu.Lock()
	n.cut = map[[2]int]bool{}
	n.mu.Unlock()
}

func (n *simNet) reachable(i, j int) bool {
	if i < 0 || j < 0 || i == j {
		return true // the client reaches every member; a member reaches itself
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.cut[link(i, j)]
}

// abortAll closes every pipe still open: the bubble's goroutines must
// all end before synctest.Run returns.
func (n *simNet) abortAll() {
	n.mu.Lock()
	var all []*simConn
	for k, cs := range n.conns {
		all = append(all, cs...)
		delete(n.conns, k)
	}
	n.mu.Unlock()
	for _, c := range all {
		c.abort()
	}
}

// member is member i's view of the network (i < 0: the client's).
func (n *simNet) member(i int) replication.Network { return simEnd{n, i} }

// memberOfHost maps "m3" (a URL host) or "m3:repl" (a replication
// address) to 3.
func memberOfHost(host string) int {
	host, _, _ = strings.Cut(host, ":")
	var i int
	if _, err := fmt.Sscanf(host, "m%d", &i); err != nil {
		return -1
	}
	return i
}

type simEnd struct {
	n *simNet
	i int
}

func (e simEnd) Listen(string) (net.Listener, error) {
	ln := &simListener{n: e.n, addr: fmt.Sprintf("m%d:repl", e.i), accept: make(chan net.Conn), done: make(chan struct{})}
	e.n.mu.Lock()
	defer e.n.mu.Unlock()
	if e.n.lns[ln.addr] != nil {
		return nil, fmt.Errorf("simnet: %s already bound", ln.addr)
	}
	e.n.lns[ln.addr] = ln
	return ln, nil
}

func (e simEnd) Dial(ctx context.Context, address string) (net.Conn, error) {
	j := memberOfHost(address)
	e.n.mu.Lock()
	ln := e.n.lns[address]
	if ln == nil || e.n.cut[link(e.i, j)] {
		e.n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s from m%d: connection refused", address, e.i)
	}
	a, b := net.Pipe()
	ca, cb := newSimConn(a), newSimConn(b)
	k := link(e.i, j)
	e.n.conns[k] = append(e.n.conns[k], ca, cb)
	e.n.mu.Unlock()
	select {
	case ln.accept <- cb:
		return ca, nil
	case <-ln.done:
	case <-ctx.Done():
	}
	ca.abort()
	cb.abort()
	return nil, fmt.Errorf("simnet: dial %s from m%d: connection refused", address, e.i)
}

func (e simEnd) Transport() http.RoundTripper { return e }

// RoundTrip serves r on the target member's handler, or fails at once
// when the link is cut. A member that is down answers 502 through its
// clusterMember.
func (e simEnd) RoundTrip(r *http.Request) (*http.Response, error) {
	j := memberOfHost(r.URL.Host)
	if j < 0 || j >= len(e.n.c.members) {
		return nil, fmt.Errorf("simnet: no member at %s", r.URL.Host)
	}
	if !e.n.reachable(e.i, j) {
		return nil, fmt.Errorf("simnet: %s unreachable from m%d", r.URL.Host, e.i)
	}
	sr := r.Clone(r.Context())
	sr.RequestURI = r.URL.RequestURI()
	sr.RemoteAddr = fmt.Sprintf("m%d:0", e.i)
	if sr.Body == nil {
		sr.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	e.n.c.members[j].ServeHTTP(rec, sr)
	return rec.Result(), nil
}

type simListener struct {
	n      *simNet
	addr   string
	accept chan net.Conn
	once   sync.Once
	done   chan struct{}
}

func (l *simListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *simListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.n.mu.Lock()
		delete(l.n.lns, l.addr)
		l.n.mu.Unlock()
	})
	return nil
}

func (l *simListener) Addr() net.Addr { return simAddr(l.addr) }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// simConn is one end of a link: a net.Pipe end whose writes queue and
// drain behind the caller, as a socket's send buffer does. Over a bare
// pipe two ends that both write before they read deadlock (a member
// that is not primary answers a dialer's hello with an error before it
// reads the hello); over TCP they do not. Close delivers what is queued
// before the peer sees EOF; abort (a cut link) drops it.
type simConn struct {
	net.Conn
	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte
	err     error
	closing bool
}

func newSimConn(c net.Conn) *simConn {
	s := &simConn{Conn: c}
	s.cond = sync.NewCond(&s.mu)
	go s.drain()
	return s
}

func (s *simConn) Read(p []byte) (int, error) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return 0, net.ErrClosed
	}
	return s.Conn.Read(p)
}

func (s *simConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closing {
		return 0, net.ErrClosed
	}
	s.queue = append(s.queue, append([]byte(nil), p...))
	s.cond.Signal()
	return len(p), nil
}

// Close stops local reads and writes at once (a read blocked in the
// pipe is woken by a past deadline) and lets the queue drain to the
// peer before the pipe closes.
func (s *simConn) Close() error {
	s.mu.Lock()
	s.closing = true
	s.cond.Signal()
	s.mu.Unlock()
	return s.Conn.SetReadDeadline(time.Unix(1, 0))
}

func (s *simConn) abort() {
	s.mu.Lock()
	s.closing = true
	s.queue = nil
	s.cond.Signal()
	s.mu.Unlock()
	s.Conn.Close()
}

func (s *simConn) drain() {
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closing {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // closing, all delivered
			s.mu.Unlock()
			s.Conn.Close()
			return
		}
		p := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		_, err := s.Conn.Write(p)
		s.mu.Lock()
		if err != nil {
			s.err = err
			s.queue = nil
			s.closing = true
		}
	}
}
