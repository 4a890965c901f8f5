// Package client is the cluster-aware HTTP client for a replicated
// deployment: it discovers the topology through the nodes' GET /cluster
// beacons, routes writes to the current confirmed primary and reads to
// the least-lagged ready standby, and rides out a failover with capped,
// deterministically-jittered retries.
//
// # Routing rules
//
//   - Writes (/update, /delete) go to the confirmed primary. A 409
//     answer means "not the primary anymore": the client follows the
//     Location header when present, re-resolves the topology, and
//     retries. A 503 without the X-Indeterminate header means "no
//     primary yet" (an election in progress): back off and retry.
//   - A 503 WITH X-Indeterminate is surfaced to the caller verbatim:
//     the write was committed on the primary but its replication
//     durability is unknown (a missed quorum), so a blind retry could
//     double-apply it. The caller owns that decision.
//   - Transport errors are retried against a re-resolved topology.
//     For writes this makes delivery at-least-once: a primary killed
//     after commit but before the response produces a duplicate on
//     retry. Inserts of idempotent content and keyed updates tolerate
//     this; see docs/operations.md.
//   - Reads (/topk, /analyze, ...) prefer the connected, ready standby
//     with the smallest replication lag, falling back to the primary
//     when no standby qualifies.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/replication"
)

// Config tunes a Client.
type Config struct {
	// Seeds are node HTTP base URLs to bootstrap discovery from; any
	// live member suffices, the beacon's peer list reaches the rest.
	Seeds []string
	// ID seeds the deterministic retry jitter (default: joined seeds).
	// Distinct clients should use distinct IDs so their retries spread.
	ID string
	// MaxRetries bounds the retry loop per request (default 8).
	MaxRetries int
	// RetryBase and RetryCap bound the exponential backoff between
	// retries (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// TopologyTTL is how long a discovered topology is trusted before
	// re-probing (default 1s). Errors invalidate it immediately.
	TopologyTTL time.Duration
	// HTTPClient overrides the transport (default: 10s timeout).
	HTTPClient *http.Client
}

func (c *Config) setDefaults() {
	if c.ID == "" {
		c.ID = strings.Join(c.Seeds, ",")
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.TopologyTTL <= 0 {
		c.TopologyTTL = time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
}

// Client routes requests across a replicated cluster.
type Client struct {
	cfg    Config
	jitter float64 // deterministic fraction in [0, 0.5), from Config.ID

	mu        sync.Mutex
	primary   string                             // confirmed primary's base URL ("" unknown)
	views     map[string]replication.ClusterInfo // by HTTPAddr
	refreshed time.Time
}

// New builds a Client. At least one seed is required.
func New(cfg Config) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("client: at least one seed URL is required")
	}
	cfg.setDefaults()
	return &Client{
		cfg:    cfg,
		jitter: replication.JitterFraction(cfg.ID),
		views:  make(map[string]replication.ClusterInfo),
	}, nil
}

// WritePath reports whether path must be served by the primary.
func WritePath(path string) bool {
	switch path {
	case "/update", "/delete", "/promote":
		return true
	}
	return false
}

// Refresh probes the seeds (plus every previously discovered member)
// and rebuilds the topology. Returns the number of members that
// answered.
func (c *Client) Refresh(ctx context.Context) int {
	targets := make(map[string]bool)
	for _, s := range c.cfg.Seeds {
		targets[s] = true
	}
	c.mu.Lock()
	for addr, v := range c.views {
		targets[addr] = true
		for _, p := range v.Peers {
			targets[p] = true
		}
	}
	c.mu.Unlock()

	type probe struct {
		ci replication.ClusterInfo
		ok bool
	}
	addrs := make([]string, 0, len(targets))
	for a := range targets {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	probes := make([]probe, len(addrs))
	var wg sync.WaitGroup
	for i, a := range addrs {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			if ci, err := replication.FetchClusterInfo(ctx, c.cfg.HTTPClient, base); err == nil {
				probes[i] = probe{ci, true}
			}
		}(i, a)
	}
	wg.Wait()

	views := make(map[string]replication.ClusterInfo)
	primary, primaryHint := "", ""
	var bestEpoch uint64
	bestConfirmed := false
	n := 0
	for i, p := range probes {
		if !p.ok {
			continue
		}
		n++
		ci := p.ci
		if ci.HTTPAddr == "" {
			ci.HTTPAddr = addrs[i]
		}
		views[ci.HTTPAddr] = ci
		if ci.Role == string(replication.RolePrimary) {
			better := primary == "" || ci.Epoch > bestEpoch ||
				(ci.Epoch == bestEpoch && ci.Confirmed && !bestConfirmed)
			if better {
				primary, bestEpoch, bestConfirmed = ci.HTTPAddr, ci.Epoch, ci.Confirmed
			}
		} else if ci.PrimaryHTTP != "" && primaryHint == "" {
			primaryHint = ci.PrimaryHTTP
		}
	}
	if primary == "" {
		primary = primaryHint // a follower's belief beats nothing
	}
	c.mu.Lock()
	c.views = views
	c.primary = primary
	c.refreshed = time.Now()
	c.mu.Unlock()
	return n
}

// Invalidate drops the cached topology so the next request re-probes.
func (c *Client) Invalidate() {
	c.mu.Lock()
	c.primary = ""
	c.refreshed = time.Time{}
	c.mu.Unlock()
}

// Primary returns the current primary's base URL, refreshing the
// topology if needed.
func (c *Client) Primary(ctx context.Context) (string, error) {
	return c.target(ctx, true)
}

// ReadTarget returns the base URL reads should go to right now.
func (c *Client) ReadTarget(ctx context.Context) (string, error) {
	return c.target(ctx, false)
}

// Topology returns the latest discovered views, keyed by HTTP address.
func (c *Client) Topology() map[string]replication.ClusterInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]replication.ClusterInfo, len(c.views))
	for k, v := range c.views {
		out[k] = v
	}
	return out
}

func (c *Client) target(ctx context.Context, write bool) (string, error) {
	c.mu.Lock()
	stale := c.primary == "" || time.Since(c.refreshed) > c.cfg.TopologyTTL
	c.mu.Unlock()
	if stale {
		c.Refresh(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if write {
		if c.primary == "" {
			return "", fmt.Errorf("client: no primary known")
		}
		return c.primary, nil
	}
	// Least-lagged ready standby; ties broken by address for
	// determinism. Falls back to the primary.
	best := ""
	var bestLag uint64
	for _, addr := range sortedKeys(c.views) {
		v := c.views[addr]
		if v.Role != string(replication.RoleFollower) || !v.Ready || !v.Connected {
			continue
		}
		if best == "" || v.LagSeqs < bestLag {
			best, bestLag = addr, v.LagSeqs
		}
	}
	if best != "" {
		return best, nil
	}
	if c.primary != "" {
		return c.primary, nil
	}
	return "", fmt.Errorf("client: no reachable node")
}

func sortedKeys(m map[string]replication.ClusterInfo) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Do routes one request through the cluster with retries. The body (if
// any) is buffered so it can be replayed; the caller owns closing the
// returned response's body.
func (c *Client) Do(ctx context.Context, method, path, rawQuery string, header http.Header, body []byte) (*http.Response, error) {
	write := WritePath(path)
	if write {
		mRequests.Inc("write")
	} else {
		mRequests.Inc("read")
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			if err := c.sleep(ctx, attempt); err != nil {
				return nil, err
			}
		}
		base, err := c.target(ctx, write)
		if err != nil {
			lastErr = err
			continue
		}
		sendStart := time.Now()
		resp, err := c.send(ctx, base, method, path, rawQuery, header, body)
		if err == nil {
			// The target set is the cluster membership discovered from
			// /cluster beacons — a closed set, not request data.
			//lint:allow obsreg per-target latency over the bounded cluster membership
			mUpstreamSeconds.Observe(base, time.Since(sendStart).Seconds())
		}
		if err != nil {
			// Transport failure: the node died or the connection broke.
			// Re-resolve and retry (at-least-once for writes; see the
			// package comment).
			lastErr = err
			c.Invalidate()
			continue
		}
		switch {
		case resp.StatusCode == http.StatusConflict && write:
			// Not the primary (anymore). Follow its referral when
			// given, else rediscover.
			loc := resp.Header.Get("Location")
			drain(resp)
			if base := baseOf(loc); base != "" {
				mRedirects.Inc()
				c.setPrimary(base)
			} else {
				c.Invalidate()
			}
			lastErr = fmt.Errorf("client: %s %s: primary moved (409)", method, path)
		case resp.StatusCode == http.StatusServiceUnavailable &&
			resp.Header.Get("X-Indeterminate") == "":
			// Election in progress, engine mid-swap, or quorum not yet
			// formed — retryable by design.
			drain(resp)
			c.Invalidate()
			lastErr = fmt.Errorf("client: %s %s: unavailable (503)", method, path)
		case resp.StatusCode == http.StatusBadGateway:
			// A routing hop (load balancer, another proxy) answered for
			// a dead node: the request never reached an engine.
			drain(resp)
			c.Invalidate()
			lastErr = fmt.Errorf("client: %s %s: node unreachable (502)", method, path)
		default:
			// Success, a client error, or an indeterminate write
			// failure: the caller decides.
			return resp, nil
		}
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxRetries+1, lastErr)
}

func (c *Client) send(ctx context.Context, base, method, path, rawQuery string, header http.Header, body []byte) (*http.Response, error) {
	u := base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	return c.cfg.HTTPClient.Do(req)
}

// sleep blocks for the attempt's backoff: base·2^(attempt-1), capped,
// stretched by the deterministic jitter fraction.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.cfg.RetryBase << uint(attempt-1)
	if d > c.cfg.RetryCap || d <= 0 {
		d = c.cfg.RetryCap
	}
	d += time.Duration(float64(d) * c.jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) setPrimary(base string) {
	c.mu.Lock()
	c.primary = base
	c.refreshed = time.Now()
	c.mu.Unlock()
}

// baseOf extracts the scheme://host[:port] base from a Location URL.
func baseOf(loc string) string {
	if loc == "" {
		return ""
	}
	u, err := url.Parse(loc)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return ""
	}
	return u.Scheme + "://" + u.Host
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// PostJSON routes a JSON POST and decodes the response into out (which
// may be nil). Non-2xx responses come back as errors carrying the
// status and body. A request ID carried by ctx is forwarded, so the
// receiving node's logs and slow log share it with the caller's.
func (c *Client) PostJSON(ctx context.Context, path string, reqBody []byte, out any) error {
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	if id := obs.RequestIDFrom(ctx); id != "" {
		hdr.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.Do(ctx, http.MethodPost, path, "", hdr, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &StatusError{Code: resp.StatusCode, Body: string(raw),
			Indeterminate: resp.Header.Get("X-Indeterminate") != ""}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// StatusError is a non-2xx response surfaced by PostJSON.
// Indeterminate marks a write whose durability is unknown (quorum
// failure): retrying it may double-apply.
type StatusError struct {
	Code          int
	Body          string
	Indeterminate bool
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: status %d: %s", e.Code, strings.TrimSpace(e.Body))
}
