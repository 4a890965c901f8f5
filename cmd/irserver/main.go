// Command irserver serves a persisted dataset over the JSON HTTP API
// (see internal/server): POST /topk, POST /analyze, POST /batchanalyze,
// POST /update, POST /delete, GET /stats, GET /healthz. Queries execute
// through the unified engine layer, so repeated and in-region weight
// vectors are answered from the immutable-region cache without touching
// the index.
//
// Writes go through an overlay on the disk files (the files themselves
// only change at checkpoints); with -wal every /update and /delete
// batch is appended to wal.log before it applies, replayed on restart,
// and folded into fresh dataset files once the log or overlay outgrows
// -checkpoint-bytes. Cached analyses survive a write whenever the
// region certificate proves them unaffected.
//
// With -replicate-listen a -wal server additionally acts as a
// replication primary: it streams committed WAL frames to followers,
// and with -ack=quorum each write batch is acknowledged only after a
// majority of connected followers confirm an fsync. With -follow the
// server is a warm read-only standby: it replicates the named primary
// into -data (bootstrapping via snapshot transfer when needed), serves
// the read endpoints from its replayed state, and answers writes with
// 409 plus a Location pointer to the primary's HTTP address (503 until
// the primary's first welcome names it). See docs/replication.md
// and docs/operations.md.
//
// With -cluster the server joins an HA cluster under the failover
// coordinator: the node detects primary death over the replication
// heartbeat stream, elects a successor deterministically (highest
// fsynced sequence, node id tiebreak), promotes it under a new fencing
// epoch, and demotes a deposed primary that comes back — no operator
// action. Exactly one member boots with -cluster-primary; the rest
// start as followers. GET /cluster serves the topology beacon, GET
// /readyz routing readiness, and POST /promote forces promotion.
// Front the members with irproxy for a single stable address.
//
// On SIGINT/SIGTERM the server drains in-flight requests (bounded by
// -shutdown-timeout) and then flushes and closes the write-ahead log.
//
// Usage:
//
//	irgen -dataset kb -out /tmp/kb
//	irserver -data /tmp/kb -addr :8080 -wal -replicate-listen :7070
//	irserver -data /tmp/kb-standby -addr :8081 -follow localhost:7070
//	curl -s localhost:8080/analyze -d '{"dims":[3,17],"weights":[0.8,0.5],"k":10,"phi":1}'
//	curl -s localhost:8080/update -d '{"ops":[{"tuple":[{"dim":3,"val":0.9}]}]}'
//
// With -demo it serves the paper's running example.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

func main() {
	var (
		data         = flag.String("data", "", "dataset directory (tuples/lists files, MANIFEST, wal.log)")
		demo         = flag.Bool("demo", false, "serve the paper's running example")
		addr         = flag.String("addr", ":8080", "listen address")
		maxConc      = flag.Int("max-concurrent", 0, "max queries executing at once (0 = default 4×GOMAXPROCS, negative = unlimited)")
		cacheEntries = flag.Int("cache-entries", 0, "answer cache entry bound (0 = default)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "answer cache byte bound (0 = default)")
		noCache      = flag.Bool("no-cache", false, "disable the immutable-region answer cache")
		verify       = flag.Bool("verify", false, "verify dataset file checksums before serving")
		readonly     = flag.Bool("readonly", false, "disable POST /update and /delete (disk datasets are then served without the write overlay)")
		useWAL       = flag.Bool("wal", false, "write-ahead log: persist update batches to wal.log beside the dataset files and replay them on start")
		syncF        = flag.String("sync", "batch", "WAL fsync policy: batch (per update batch), none, or an interval like 250ms")
		ckptBytes    = flag.Int64("checkpoint-bytes", 0, "compact the WAL + overlay into fresh dataset files past this size (0 = default 64MiB, negative = never)")
		shutdownTo   = flag.Duration("shutdown-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight requests")
		replListen   = flag.String("replicate-listen", "", "replication primary: accept follower connections on this address (requires -wal; in -cluster mode, the node's replication listener)")
		follow       = flag.String("follow", "", "replication standby: replicate from this primary replication address into -data and serve read-only")
		ackF         = flag.String("ack", "async", "primary replication ack mode: async, or quorum (writes wait for ⌈n/2⌉ follower fsyncs)")
		ackTimeout   = flag.Duration("ack-timeout", 5*time.Second, "quorum ack wait bound before a write reports a missed quorum")
		cluster      = flag.String("cluster", "", "HA cluster mode: comma-separated peer HTTP base URLs (the OTHER members); enables the failover coordinator")
		clusterPrim  = flag.Bool("cluster-primary", false, "boot this cluster member in the primary role (exactly one member per cluster)")
		advertise    = flag.String("advertise", "", "this node's HTTP base URL as peers and clients should reach it (default derived from -addr)")
		nodeID       = flag.String("node-id", "", "stable node identity and election tiebreaker (default: the advertise URL)")
		failoverTo   = flag.Duration("failover-timeout", 2*time.Second, "heartbeat silence a follower tolerates before suspecting the primary dead")
		probeIvl     = flag.Duration("probe-interval", 500*time.Millisecond, "coordination step period (peer probing, election checks)")
		readyLag     = flag.Uint64("ready-lag", 1024, "max replication lag (in sequence numbers) for /readyz to report ready on a standby")
		shardDir     = flag.String("shard-dir", "", "serve ONE shard of a range-partitioned dataset (irgen -shards layout: shard-<i>/ dirs under this root); requires -shard-id")
		shardID      = flag.Int("shard-id", -1, "which shard of -shard-dir this server owns")
		slowQuery    = flag.Duration("slow-query", server.DefaultSlowQuery, "record queries slower than this in GET /debug/slowlog (0 disables)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (off when empty)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("irserver %s (commit %s)\n", obs.Version, obs.Commit)
		return
	}
	if *pprofAddr != "" {
		go obs.ServePprof(*pprofAddr)
	}

	syncPolicy, err := wal.ParseSyncPolicy(*syncF)
	if err != nil {
		log.Fatalf("irserver: %v", err)
	}
	ackMode, err := replication.ParseAckMode(*ackF)
	if err != nil {
		log.Fatalf("irserver: %v", err)
	}
	cfg := engine.Config{
		MaxConcurrent:   *maxConc,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		VerifyChecksums: *verify,
		ReadOnly:        *readonly,
		WAL:             *useWAL,
		WALSync:         syncPolicy,
		CheckpointBytes: *ckptBytes,
	}
	if *noCache {
		cfg.CacheEntries = -1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		scfg     = server.Config{SlowQuery: *slowQuery}
		eng      *engine.Engine
		prim     *replication.Primary
		fol      *replication.Follower
		shutdown func() // post-drain resource teardown, in order
	)
	switch {
	case *cluster != "" || *clusterPrim:
		// HA cluster member: the failover coordinator owns the engine,
		// the replication listener and the role; the server consults it
		// per request for the engine, the write gate and readiness.
		if *data == "" {
			log.Fatal("irserver: -cluster needs -data DIR")
		}
		if *demo || *follow != "" || *readonly {
			log.Fatal("irserver: -cluster is exclusive with -demo, -follow and -readonly")
		}
		adv := advertiseURL(*advertise, *addr)
		node, err := replication.NewNode(replication.NodeConfig{
			Dir:             *data,
			Engine:          cfg,
			NodeID:          *nodeID,
			AdvertiseHTTP:   adv,
			ReplListen:      *replListen,
			Peers:           splitPeers(*cluster),
			StartPrimary:    *clusterPrim,
			AckMode:         ackMode,
			AckTimeout:      *ackTimeout,
			FailoverTimeout: *failoverTo,
			ProbeInterval:   *probeIvl,
			ReadyLag:        *readyLag,
		})
		if err != nil {
			log.Fatalf("irserver: %v", err)
		}
		go node.Run(ctx)
		eng = node.Engine() // may be nil on a fresh member awaiting its first snapshot
		scfg.Querier = func() server.Querier { return node.Engine() }
		scfg.WriteGate = node.WriteGate
		scfg.Readiness = node.Readiness
		scfg.ClusterInfo = func() any { return node.ClusterInfo() }
		scfg.Promote = node.Promote
		scfg.Replication = func() any { return node.Stats() }
		shutdown = func() {
			stop() // cancel ctx so node.Run unwinds and closes the engine
			<-node.Done()
		}
		fmt.Printf("irserver: cluster member %s (repl %s, boot role %s, peers %v)\n",
			adv, node.ReplAddr(), map[bool]string{true: "primary", false: "follower"}[*clusterPrim], splitPeers(*cluster))

	case *follow != "":
		// Replication standby: the follower owns the engine lifecycle
		// (it may replace it on a snapshot re-seed), the server resolves
		// it per request, and writes are redirected to the primary's
		// HTTP address as the follower last heard it (503 before then).
		if *data == "" {
			log.Fatal("irserver: -follow needs -data DIR (the standby's own directory)")
		}
		if *demo || *replListen != "" || *useWAL || *readonly {
			log.Fatal("irserver: -follow is exclusive with -demo, -replicate-listen, -wal and -readonly (the standby is always durable and read-only)")
		}
		fol = replication.NewFollower(replication.FollowerConfig{
			Dir:         *data,
			PrimaryAddr: *follow,
			Engine:      cfg,
		})
		go fol.Run(ctx)
		readyCtx, cancel := context.WithTimeout(ctx, time.Minute)
		e, err := fol.WaitReady(readyCtx)
		cancel()
		if err != nil {
			log.Fatalf("irserver: %v", err)
		}
		eng = e
		scfg.Querier = func() server.Querier { return fol.Engine() }
		scfg.WriteGate = fol.WriteGate
		scfg.Replication = func() any { return fol.Stats() }
		scfg.Readiness = func() error { return fol.Readiness(*readyLag) }
		shutdown = func() {
			stop() // ensure ctx is canceled so Run unwinds
			<-fol.Done()
			if err := fol.Close(); err != nil {
				obs.Log().Warn("follower_close_failed", "error", err.Error())
			}
		}
		fmt.Printf("irserver: standby of %s (dataset %s), lag %d\n", *follow, *data, fol.Stats().SeqDelta)

	case *shardDir != "":
		// One shard of a range-partitioned dataset (irgen -shards). The
		// server is an ordinary standalone primary over the shard's own
		// files; it additionally advertises a single-member /cluster
		// beacon so a coordinator (irproxy -shard-map) can route to it
		// through internal/client exactly as it would to an HA group.
		if *shardID < 0 {
			log.Fatal("irserver: -shard-dir needs -shard-id")
		}
		if *demo || *data != "" || *follow != "" || *useWAL || *cluster != "" || *clusterPrim {
			log.Fatal("irserver: -shard-dir is exclusive with -data, -demo, -follow, -wal and -cluster")
		}
		eng, err = engine.OpenShard(*shardDir, *shardID, 0, cfg)
		if err != nil {
			log.Fatalf("irserver: %v", err)
		}
		adv := advertiseURL(*advertise, *addr)
		scfg.ClusterInfo = shard.SelfBeacon(fmt.Sprintf("shard-%d", *shardID), adv)
		shutdown = func() { eng.Close() }
		fmt.Printf("irserver: shard %d of %s, advertised at %s\n", *shardID, *shardDir, adv)

	case *demo:
		tuples, _, _ := fixture.RunningExample()
		eng = engine.New(lists.NewMemIndex(tuples, 2), cfg)
		shutdown = func() { eng.Close() }

	case *data != "":
		eng, err = engine.OpenDir(*data, 0, cfg)
		if err != nil {
			log.Fatalf("irserver: %v", err)
		}
		shutdown = func() { eng.Close() }
		if *replListen != "" {
			if !*useWAL {
				log.Fatal("irserver: -replicate-listen requires -wal (the shipped stream IS the write-ahead log)")
			}
			prim, err = replication.NewPrimary(eng, *data, replication.PrimaryConfig{
				HTTPAddr:   *addr,
				AckMode:    ackMode,
				AckTimeout: *ackTimeout,
			})
			if err != nil {
				log.Fatalf("irserver: %v", err)
			}
			ln, err := net.Listen("tcp", *replListen)
			if err != nil {
				log.Fatalf("irserver: replication listen: %v", err)
			}
			go func() {
				if err := prim.Serve(ln); err != nil {
					obs.Log().Error("replication_serve_failed", "error", err.Error())
				}
			}()
			scfg.Replication = func() any { return prim.Stats() }
			closeEng := shutdown
			shutdown = func() {
				prim.Close() // sever followers + fail pending quorum waits first
				closeEng()
			}
			fmt.Printf("irserver: replication primary on %s (ack=%s, dataset %s)\n", *replListen, ackMode, prim.DatasetID())
		}

	default:
		log.Fatal("irserver: need -data DIR, -demo, or -follow PRIMARY")
	}

	if scfg.Querier == nil { // a shard, -demo or -data: one fixed engine
		scfg.Querier = func() server.Querier { return eng }
	}
	httpSrv := obs.NewServer(*addr, server.New(scfg).Handler())
	obs.Log().Info("starting", "version", obs.Version, "commit", obs.Commit, "addr", *addr)

	if eng != nil {
		fmt.Printf("irserver: %d tuples, %d dimensions, listening on %s (max-concurrent=%d cache=%v mutable=%v wal=%v)\n",
			eng.N(), eng.Dim(), *addr, *maxConc, eng.CacheEnabled(), eng.Mutable(), eng.Durable())
		if ds := eng.DurabilityStats(); ds.Enabled && (ds.ReplayedRecords > 0 || ds.TruncatedBytes > 0) {
			fmt.Printf("irserver: recovered %d ops from %d wal records (%d torn bytes repaired)\n",
				ds.ReplayedOps, ds.ReplayedRecords, ds.TruncatedBytes)
		}
	} else {
		fmt.Printf("irserver: listening on %s, awaiting first snapshot from the cluster\n", *addr)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests before
	// closing the engine — the WAL flush must come after the last
	// /update handler has returned.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		shutdown()
		log.Fatalf("irserver: %v", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("irserver: shutting down, draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTo)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Stragglers used up the grace period: sever their
			// connections so their request contexts fire and they abort;
			// the engine close below still waits for them to finish
			// unwinding before it touches the files.
			obs.Log().Warn("shutdown_timeout", "grace", shutdownTo.String())
			httpSrv.Close()
		} else {
			obs.Log().Warn("shutdown_error", "error", err.Error())
		}
	}
	shutdown()
	fmt.Println("irserver: bye")
}

// advertiseURL is this node's HTTP base URL as peers and clients should
// reach it: -advertise when set, else derived from the listen address
// (an empty host becomes loopback).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		log.Fatalf("irserver: cannot derive -advertise from -addr %q: %v", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// splitPeers parses the -cluster flag's comma-separated peer list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
