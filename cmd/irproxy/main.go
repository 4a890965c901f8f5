// Command irproxy is the smart routing front door for a replicated
// irserver cluster. It discovers the topology through the nodes' GET
// /cluster beacons, routes writes (/update, /delete) to the current
// confirmed primary and reads to the least-lagged ready standby, and
// rides out a failover transparently: on a 409 referral it follows the
// Location header to the new primary, on a 503 or a dead connection it
// re-resolves the topology and retries with capped, deterministically
// jittered backoff, until the request's -request-timeout budget is
// spent or its client hangs up. An attempt or topology probe that has
// not answered within half of what is left of the budget is abandoned,
// so a member that hangs leaves time to retry on another.
//
// The proxy is stateless — kill -9 it and restart; everything it knows
// is rediscovered from -nodes within one probe. Run several behind a
// TCP balancer for proxy redundancy.
//
// Endpoints served by the proxy itself: GET /healthz (proxy liveness,
// independent of cluster health) and GET /topology (the current
// discovered view). Everything else is forwarded.
//
// With -shard-map the proxy is instead the scatter-gather COORDINATOR
// for a range-partitioned dataset (irgen -shards): it loads the
// shards.json manifest, builds one cluster-aware client per shard group
// from -shard-nodes (comma-separated groups; members of a group — a
// shard's primary plus standbys — joined by ';'), fans /topk and
// /analyze out to every shard, routes /update and /delete batches to
// the owning shards, and merges the answers bit-identically to a
// single node over the union (docs/sharding.md). -request-timeout
// bounds every shard RPC, all its attempts and the -retry-base /
// -retry-cap backoff between them; a shard that does not answer within
// it fails the query closed, a 502: a merge without it would certify
// no region. The coordinator's front is internal/server over the
// merge, so it serves the whole single-node surface — batches, /stats
// (build block only), /readyz, the slow log — and the ir_http_*
// families beside the per-shard fan-out counters on GET /metrics.
//
// Usage:
//
//	irproxy -addr :8000 -nodes http://db1:8080,http://db2:8080,http://db3:8080
//	curl -s localhost:8000/update -d '{"ops":[{"tuple":[{"dim":3,"val":0.9}]}]}'
//	irproxy -addr :8000 -shard-map /data/st/shards.json \
//	        -shard-nodes 'http://s0:8080;http://s0b:8080,http://s1:8080'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/shard"
)

func main() {
	var (
		addr        = flag.String("addr", ":8000", "proxy listen address")
		nodes       = flag.String("nodes", "", "comma-separated cluster member HTTP base URLs (seeds for topology discovery)")
		id          = flag.String("id", "", "proxy identity seeding the deterministic retry jitter (default: the node list)")
		retryBase   = flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt)")
		retryCap    = flag.Duration("retry-cap", 2*time.Second, "retry backoff ceiling")
		topologyTTL = flag.Duration("topology-ttl", time.Second, "how long a discovered topology is trusted before re-probing")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "time budget of one upstream call, shard RPCs included: every attempt and the backoff between them, with half of what is left for each attempt")
		shutdownTo  = flag.Duration("shutdown-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight requests")
		shardMap    = flag.String("shard-map", "", "coordinator mode: shards.json manifest of the range partition (irgen -shards); requires -shard-nodes")
		shardNodes  = flag.String("shard-nodes", "", "per-shard seed groups, ','-separated in shard order; members within a group ';'-separated")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (off when empty)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("irproxy %s (commit %s)\n", obs.Version, obs.Commit)
		return
	}
	if *pprofAddr != "" {
		go obs.ServePprof(*pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	clientCfg := client.Config{
		ID:             *id,
		RequestTimeout: *reqTimeout,
		RetryBase:      *retryBase,
		RetryCap:       *retryCap,
		TopologyTTL:    *topologyTTL,
	}

	var handler http.Handler
	switch {
	case *shardMap != "":
		groups := splitGroups(*shardNodes)
		if len(groups) == 0 {
			log.Fatal("irproxy: -shard-map needs -shard-nodes (one ','-separated seed group per shard)")
		}
		mf, err := shard.LoadManifest(*shardMap)
		if err != nil {
			log.Fatalf("irproxy: %v", err)
		}
		mp, err := mf.Map()
		if err != nil {
			log.Fatalf("irproxy: %v", err)
		}
		if len(groups) != mp.NumShards() {
			log.Fatalf("irproxy: -shard-nodes lists %d groups, manifest has %d shards", len(groups), mp.NumShards())
		}
		backends, err := shard.NewHTTPBackends(groups, clientCfg)
		if err != nil {
			log.Fatalf("irproxy: %v", err)
		}
		coord, err := shard.New(mp, backends, shard.Config{})
		if err != nil {
			log.Fatalf("irproxy: %v", err)
		}
		handler = shard.NewHandler(coord)
		fmt.Printf("irproxy: shard coordinator on %s over %d shards (%d tuples, %d dims)\n",
			*addr, mp.NumShards(), mf.N, mf.M)

	default:
		seeds := splitList(*nodes)
		if len(seeds) == 0 {
			log.Fatal("irproxy: -nodes needs at least one cluster member URL")
		}
		clientCfg.Seeds = seeds
		c, err := client.New(clientCfg)
		if err != nil {
			log.Fatalf("irproxy: %v", err)
		}
		n := c.Refresh(ctx)
		fmt.Printf("irproxy: listening on %s, %d of %d seed nodes answering\n", *addr, n, len(seeds))
		handler = client.NewProxy(c).Handler()
	}

	httpSrv := obs.NewServer(*addr, handler)
	obs.Log().Info("starting", "version", obs.Version, "commit", obs.Commit, "addr", *addr)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("irproxy: %v", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("irproxy: shutting down, draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTo)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			httpSrv.Close()
		} else {
			obs.Log().Warn("shutdown_error", "error", err.Error())
		}
	}
	fmt.Println("irproxy: bye")
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitGroups parses -shard-nodes: groups ','-separated in shard order,
// members within a group (a shard's primary + standbys) ';'-separated.
func splitGroups(s string) [][]string {
	var out [][]string
	for _, g := range strings.Split(s, ",") {
		var members []string
		for _, m := range strings.Split(g, ";") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			out = append(out, members)
		}
	}
	return out
}
