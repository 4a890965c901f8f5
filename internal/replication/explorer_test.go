//go:build goexperiment.synctest

// The failover explorer: seeded fault schedules against quorum-ack
// clusters of three and five members on an in-memory network (simNet),
// in the virtual time of testing/synctest, with the split-brain claims
// of coordinator.go's package comment checked as invariants after every
// step:
//
//   - I1: for every epoch, at most one member answers 200 to a write;
//   - I2: a quorum-acknowledged write is on every confirmed primary at
//     its epoch or a later one;
//   - I3: no member answers 200 at an epoch below one already seen
//     confirmed;
//   - I4: after healing, each follower's wal.log holds the primary's
//     frames byte for byte, from the point each last folded, with no
//     gap up to the primary's last;
//   - I5: at most one member ever holds the primary role at an epoch.
//
// A schedule is drawn from its seed, and every action is followed by
// synctest.Wait, so the cluster is quiescent whenever the explorer
// looks; the same seed replays the same run (TestFailoverExplorerReplay
// holds that). Run with GOEXPERIMENT=synctest (make test-failover); a
// failure prints its seed, its steps and the command that replays it.
package replication_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/replication"
	"repro/internal/vec"
	"repro/internal/wal"
)

var explorerSchedules = flag.Int("explorer.schedules", 200, "schedules (seeds 1..N) per TestFailoverExplorer row")

// explorerRow is one family of schedules.
type explorerRow struct {
	name      string
	members   int
	ckptBytes int64 // every member's Engine.CheckpointBytes
	// soak draws runChaosTrial's schedule: 4–6 events 150–350 ms apart,
	// each restarting the member that is down or else killing one (the
	// confirmed primary two times in three), never two down. Otherwise
	// the schedule mixes kills, restarts, cut links, minority
	// partitions and heals, with at most a minority down.
	soak bool
	// seeds pins a regression row's schedules; nil runs seeds 1..n.
	seeds []int64
}

var explorerRows = []explorerRow{
	{name: "soak3", members: 3, ckptBytes: -1, soak: true},
	{name: "faults3", members: 3, ckptBytes: -1},
	{name: "faults5", members: 5, ckptBytes: -1},
	{name: "checkpoint3", members: 3, ckptBytes: 4 << 10},
	// Schedules that lose acknowledged writes without the rule they pin.
	// faults3 25: m2, cut off from the primary, is elected on a stale
	// view, and m1 follows it onto a shorter history (followable).
	// faults3 359: a follower's newest frames are of a later epoch than a
	// longer log's (followable's use of newerHistory). faults3 1572: m1
	// and m2 both promote from views that share m0, and with one epoch
	// minted twice m1's refused frame 22 passes for m2's acknowledged
	// one (ballots). faults5 38: a primary cut off with one follower
	// acknowledges with it alone (Primary.Gate's floor).
	{name: "faults3-pinned", members: 3, ckptBytes: -1, seeds: []int64{25, 359, 1572}},
	{name: "faults5-pinned", members: 5, ckptBytes: -1, seeds: []int64{38}},
}

// seedList is the row's pinned seeds, or seeds 1..n.
func (r explorerRow) seedList(n int) []int64 {
	if r.seeds != nil {
		return r.seeds
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// tick is the explorer's sampling period; writes go out on it too. It
// and the members' staggered boots keep the members' timers (probe
// rounds every 40 ms, heartbeats every 20 ms) off common instants: two
// goroutines woken at one instant run in either order, and a schedule
// whose outcome hangs on that order does not replay.
const tick = 7 * time.Millisecond

// TestFailoverExplorer runs seeds 1..-explorer.schedules of every row,
// and the pinned seeds of the regression rows.
func TestFailoverExplorer(t *testing.T) {
	for _, row := range explorerRows {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range row.seedList(*explorerSchedules) {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					out := runExplorer(t, row, seed)
					if testing.Verbose() {
						t.Logf("%d acknowledged writes; end state %s\n  %s", out.acked, out.final, strings.Join(out.steps, "\n  "))
					}
					if out.err != nil {
						t.Fatalf("%s seed %d: %v\nschedule:\n  %s\nend state: %s\nreplay: GOEXPERIMENT=synctest go test -run 'TestFailoverExplorer/%s/seed=%d$' ./internal/replication/ -explorer.schedules=%d",
							row.name, seed, out.err, strings.Join(out.steps, "\n  "), out.final, row.name, seed, seed)
					}
				})
			}
		})
	}
}

// TestFailoverExplorerReplay: a seed run twice gives the same schedule,
// the same verdict and the same end state (every member's last
// sequence number and epoch), for the first two seeds of every row.
func TestFailoverExplorerReplay(t *testing.T) {
	for _, row := range explorerRows {
		for _, seed := range row.seedList(2) {
			a, b := runExplorer(t, row, seed), runExplorer(t, row, seed)
			if sa, sb := strings.Join(a.steps, "\n  "), strings.Join(b.steps, "\n  "); sa != sb {
				t.Errorf("%s seed %d: schedules differ:\n  %s\nthen\n  %s", row.name, seed, sa, sb)
			}
			if va, vb := verdict(a.err), verdict(b.err); va != vb {
				t.Errorf("%s seed %d: verdicts differ: %q then %q", row.name, seed, va, vb)
			}
			if a.final != b.final {
				t.Errorf("%s seed %d: end states differ: %s then %s", row.name, seed, a.final, b.final)
			}
		}
	}
}

func verdict(err error) string {
	if err == nil {
		return "pass"
	}
	first, _, _ := strings.Cut(err.Error(), "\n")
	return first
}

// outcome is what one schedule leaves: the steps it took, its first
// violation (nil: none) and every member's end state.
type outcome struct {
	steps []string
	err   error
	final string
	acked int
}

// runExplorer runs one schedule in its own bubble.
func runExplorer(t *testing.T, row explorerRow, seed int64) outcome {
	var out outcome
	synctest.Run(func() {
		x := newExplorer(t, row, seed)
		x.run()
		out = outcome{steps: x.steps, err: x.failure(), final: x.final, acked: len(x.acks)}
	})
	return out
}

type explorer struct {
	row    explorerRow
	rng    *rand.Rand // the schedule and the write targets
	wrng   *rand.Rand // the write bodies
	c      *cluster
	sn     *simNet
	tuples []vec.Sparse
	start  time.Time
	down   []bool
	steps  []string
	final  string
	writes sync.WaitGroup

	mu        sync.Mutex // the ledger below; writes land from their own goroutines
	acks      []ackedWrite
	writer    map[uint64]int // I1: the member that answered 200 at each epoch
	primary   map[uint64]int // I5: the member seen primary at each epoch
	confirmed uint64         // the highest epoch seen confirmed
	err       error          // the first violation
}

func newExplorer(t *testing.T, row explorerRow, seed int64) *explorer {
	rng := rand.New(rand.NewSource(seed))
	x := &explorer{
		row:     row,
		rng:     rng,
		wrng:    rand.New(rand.NewSource(seed*31 + 1)),
		tuples:  fGenTuples(rng, 30),
		start:   time.Now(),
		down:    make([]bool, row.members),
		writer:  map[uint64]int{},
		primary: map[uint64]int{},
	}
	x.c = &cluster{t: t, ckptBytes: row.ckptBytes}
	x.sn = newSimNet(x.c)
	x.c.network = x.sn.member
	for i := 0; i < row.members; i++ {
		x.c.members = append(x.c.members, &clusterMember{idx: i, dir: t.TempDir(), url: fmt.Sprintf("http://m%d", i)})
	}
	fSaveDataset(t, x.c.members[0].dir, x.tuples)
	return x
}

func (x *explorer) run() {
	defer func() {
		x.c.close()
		x.writes.Wait()
		x.sn.abortAll()
	}()
	for i := range x.c.members {
		x.c.start(i, i == 0)
		time.Sleep(3 * time.Millisecond)
	}
	if !x.settle("boot") {
		return
	}
	if x.row.soak {
		x.soakSchedule()
	} else {
		x.faultSchedule()
	}
	if x.failure() != nil {
		return
	}
	x.note("heal all links, restart every member that is down")
	x.sn.healAll()
	for i, d := range x.down {
		if d {
			x.restart(i)
		}
	}
	x.writes.Wait()
	if x.settle("end") {
		x.finalChecks()
	}
}

// soakSchedule is runChaosTrial's kill/restart schedule.
func (x *explorer) soakSchedule() {
	down := -1
	events := 4 + x.rng.Intn(3)
	for e := 0; e < events && x.failure() == nil; e++ {
		if x.wait(time.Duration(150+x.rng.Intn(200)) * time.Millisecond); x.failure() != nil {
			return
		}
		if down >= 0 {
			x.restart(down)
			down = -1
			continue
		}
		victim := -1
		if prim := x.c.primaryIdx(); prim >= 0 && x.rng.Intn(3) < 2 {
			victim = prim
		} else if live := x.members(false); len(live) > 0 {
			victim = live[x.rng.Intn(len(live))]
		}
		if victim >= 0 {
			x.kill(victim)
			down = victim
		}
	}
	if down >= 0 && x.failure() == nil {
		x.wait(200 * time.Millisecond)
		x.restart(down)
	}
}

// faultSchedule mixes every fault, at most a minority down at a time.
func (x *explorer) faultSchedule() {
	n := len(x.c.members)
	maxDown := (n - 1) / 2
	steps := 6 + x.rng.Intn(5)
	for s := 0; s < steps && x.failure() == nil; s++ {
		if x.wait(time.Duration(50+x.rng.Intn(350)) * time.Millisecond); x.failure() != nil {
			return
		}
		switch x.rng.Intn(5) {
		case 0, 1: // kill, or restart a member that is down (always once a minority is)
			if d := x.members(true); len(d) >= maxDown || (len(d) > 0 && x.rng.Intn(2) == 0) {
				x.restart(d[x.rng.Intn(len(d))])
			} else {
				x.kill(x.victim())
			}
		case 2:
			i := x.rng.Intn(n)
			j := (i + 1 + x.rng.Intn(n-1)) % n
			x.note("cut m%d-m%d", i, j)
			x.sn.setCut(i, j, true)
		case 3: // a minority, the primary in it half the time, cut from the rest
			side := x.minority(1 + x.rng.Intn(maxDown))
			x.note("partition %v | rest", side)
			for i := 0; i < n; i++ {
				if slices.Contains(side, i) {
					continue
				}
				for _, a := range side {
					x.sn.setCut(a, i, true)
				}
			}
		case 4:
			x.note("heal")
			x.sn.healAll()
		}
		synctest.Wait()
		x.check()
	}
}

// victim picks a live member to kill: the confirmed primary half the
// time, else any.
func (x *explorer) victim() int {
	if prim := x.c.primaryIdx(); prim >= 0 && x.rng.Intn(2) == 0 {
		return prim
	}
	live := x.members(false)
	return live[x.rng.Intn(len(live))]
}

// minority draws k distinct members, the confirmed primary first half
// the time.
func (x *explorer) minority(k int) []int {
	var side []int
	if prim := x.c.primaryIdx(); prim >= 0 && x.rng.Intn(2) == 0 {
		side = append(side, prim)
	}
	for len(side) < k {
		if i := x.rng.Intn(len(x.c.members)); !slices.Contains(side, i) {
			side = append(side, i)
		}
	}
	return side
}

// members lists the members that are down (or, with down false, up).
func (x *explorer) members(down bool) []int {
	var out []int
	for i, d := range x.down {
		if d == down {
			out = append(out, i)
		}
	}
	return out
}

func (x *explorer) note(format string, args ...any) {
	x.steps = append(x.steps, fmt.Sprintf("%6v ", time.Since(x.start))+fmt.Sprintf(format, args...))
}

func (x *explorer) kill(i int) {
	x.note("kill m%d", i)
	x.c.kill(i)
	x.down[i] = true
	synctest.Wait()
	x.check()
}

func (x *explorer) restart(i int) {
	x.note("restart m%d", i)
	x.c.start(i, false)
	x.down[i] = false
	synctest.Wait()
	x.check()
}

// wait lets d of virtual time pass, sending a write to a random member
// on half the ticks and checking the invariants on every one.
func (x *explorer) wait(d time.Duration) {
	x.note("run %v under writes", d)
	for end := time.Now().Add(d); time.Now().Before(end) && x.failure() == nil; {
		if x.rng.Intn(2) == 0 {
			x.write(x.rng.Intn(len(x.c.members)))
		}
		time.Sleep(tick)
		synctest.Wait()
		x.check()
	}
}

// settle runs the cluster without writes until it has converged (one
// confirmed primary, every live follower connected and caught up); a
// minute of virtual time without that is a liveness failure.
func (x *explorer) settle(what string) bool {
	for end := time.Now().Add(time.Minute); x.failure() == nil; {
		if x.c.converged() >= 0 {
			return true
		}
		if !time.Now().Before(end) {
			x.fail("liveness: no convergence within a minute (%s)\n%s", what, x.c.dumpState())
			return false
		}
		time.Sleep(tick)
		synctest.Wait()
		x.check()
	}
	return false
}

// write sends one insert to member m from its own goroutine, as a
// client that can reach every member would, and records a 200 with the
// epoch the member held when the write went out.
func (x *explorer) write(m int) {
	body := updateBody(x.wrng)
	x.writes.Add(1)
	go func() {
		defer x.writes.Done()
		var epoch uint64
		if n := x.c.node(m); n != nil {
			if e := n.Engine(); e != nil {
				epoch = e.Epoch()
			}
		}
		x.mu.Lock()
		confirmed := x.confirmed
		x.mu.Unlock()
		req, err := http.NewRequest(http.MethodPost, x.c.members[m].url+"/update", bytes.NewReader(body))
		if err != nil {
			x.fail("build request: %v", err)
			return
		}
		resp, err := x.sn.member(-1).Transport().RoundTrip(req)
		if err != nil {
			return
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			x.acked(m, epoch, confirmed, body)
		}
	}()
	synctest.Wait()
}

// acked checks I1 and I3 for one 200 and adds it to the ledger I2
// holds the primaries to.
func (x *explorer) acked(m int, epoch, confirmedBefore uint64, body []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if w, ok := x.writer[epoch]; ok && w != m {
		x.failLocked("I1: members m%d and m%d both answered 200 at epoch %d", w, m, epoch)
	}
	x.writer[epoch] = m
	if confirmedBefore > epoch {
		x.failLocked("I3: m%d answered 200 at epoch %d after epoch %d was confirmed", m, epoch, confirmedBefore)
	}
	x.acks = append(x.acks, ackedWrite{body: string(body), member: m, at: time.Since(x.start), epoch: epoch})
}

// check samples every member: I5 on each primary, the confirmed epoch
// I3 compares with, and I2 on each confirmed primary.
func (x *explorer) check() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := range x.c.members {
		n := x.c.node(i)
		if n == nil {
			continue
		}
		ci := n.ClusterInfo()
		if ci.Role != string(replication.RolePrimary) {
			continue
		}
		if p, ok := x.primary[ci.Epoch]; ok && p != i {
			x.failLocked("I5: members m%d and m%d both held the primary role at epoch %d", p, i, ci.Epoch)
			return
		}
		x.primary[ci.Epoch] = i
		if !ci.Confirmed {
			continue
		}
		x.confirmed = max(x.confirmed, ci.Epoch)
		eng := n.Engine()
		if eng == nil || len(x.acks) == 0 {
			continue
		}
		held := make(map[string]bool, eng.N())
		for id := 0; id < eng.N(); id++ {
			held[string(tupleBody(eng.Tuple(id)))] = true
		}
		for _, a := range x.acks {
			if a.epoch <= ci.Epoch && !held[a.body] {
				x.failLocked("I2: m%d, confirmed primary at epoch %d, lacks a write m%d acknowledged at epoch %d\n%s",
					i, ci.Epoch, a.member, a.epoch, x.c.lostReport(eng, x.acks))
				return
			}
		}
	}
}

// finalChecks runs on the converged cluster: I4, every member against
// the single-node oracle (or, once checkpoints fold the log, against the
// primary), and records the end state a replay must reproduce.
func (x *explorer) finalChecks() {
	prim := x.c.converged()
	var b strings.Builder
	for i := range x.c.members {
		e := x.c.node(i).Engine()
		fmt.Fprintf(&b, "m%d seq=%d epoch=%d; ", i, e.LastSeq(), e.Epoch())
	}
	x.final = b.String()
	x.check()
	if err := x.logsPrefix(prim); err != nil {
		x.fail("I4: %v", err)
		return
	}
	pEng := x.c.node(prim).Engine()
	if x.row.ckptBytes < 0 {
		if err := x.c.oracleCheck(x.tuples, prim); err != nil {
			x.fail("oracle: %v", err)
		}
		return
	}
	for i := range x.c.members {
		if i == prim {
			continue
		}
		if err := enginesDiff(fmt.Sprintf("m%d vs primary m%d", i, prim), pEng, x.c.node(i).Engine()); err != nil {
			x.fail("%v", err)
			return
		}
	}
}

// logsPrefix is I4: every frame a follower's log shares with the
// primary's is byte-identical, the follower's frames run without a gap,
// and it holds every frame of the primary's log from its own first on.
// A follower's log may start later than the primary's (it folded
// further, or was seeded by a snapshot) or earlier (it has yet to fold).
func (x *explorer) logsPrefix(prim int) error {
	pseqs, pf, err := readLog(x.c.members[prim].dir)
	if err != nil {
		return fmt.Errorf("primary m%d: %v", prim, err)
	}
	for i, m := range x.c.members {
		if i == prim {
			continue
		}
		fseqs, ff, err := readLog(m.dir)
		if err != nil {
			return fmt.Errorf("m%d: %v", i, err)
		}
		for k, seq := range fseqs {
			if k > 0 && seq != fseqs[k-1]+1 {
				return fmt.Errorf("m%d's log jumps from seq %d to %d", i, fseqs[k-1], seq)
			}
			if p, ok := pf[seq]; ok && !bytes.Equal(p, ff[seq]) {
				return fmt.Errorf("m%d's frame %d differs from primary m%d's:\n  primary %x\n  m%d      %x", i, seq, prim, p, i, ff[seq])
			}
		}
		if len(fseqs) == 0 {
			continue
		}
		for _, seq := range pseqs {
			if _, ok := ff[seq]; seq >= fseqs[0] && !ok {
				return fmt.Errorf("m%d's log (seq %d..%d) lacks primary m%d's frame %d", i, fseqs[0], fseqs[len(fseqs)-1], prim, seq)
			}
		}
	}
	return nil
}

func readLog(dir string) ([]uint64, map[uint64][]byte, error) {
	var seqs []uint64
	frames := map[uint64][]byte{}
	_, err := wal.ReplayFrames(filepath.Join(dir, wal.LogName), 0, func(seq uint64, frame []byte) error {
		seqs = append(seqs, seq)
		frames[seq] = frame
		return nil
	})
	return seqs, frames, err
}

func (x *explorer) fail(format string, args ...any) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.failLocked(format, args...)
}

func (x *explorer) failLocked(format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("at %v: %s", time.Since(x.start), fmt.Sprintf(format, args...))
	}
}

func (x *explorer) failure() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}
