// Fixture for the locksafe analyzer: the path suffix internal/engine
// puts it in scope, and the Engine/mu/ckptMu names match the real
// engine's.
package engine

import (
	"os"
	"sync"
	"time"

	"locksafe/internal/lists"
	"locksafe/internal/wal"
)

type Engine struct {
	mu     sync.RWMutex
	ckptMu sync.Mutex
	log    *wal.Writer
}

// badCheckpoint holds the write lock across the rewrite: every
// deny-set call fires.
func (e *Engine) badCheckpoint(dir string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lists.SaveDataset(dir, nil)          // want `checkpoint rewrite belongs in the unlocked phase`
	lists.SaveIndex(dir, nil)            // want `checkpoint rewrite belongs in the unlocked phase`
	wal.SyncFile(dir)                    // want `fsync blocks every queued query`
	os.WriteFile(dir, nil, 0o644)        // want `file writes block every queued query`
	time.Sleep(time.Millisecond)         // want `stalls all queries`
	if err := e.log.Sync(); err != nil { // want `explicit WAL fsync belongs outside`
		return
	}
}

// goodCheckpoint is the documented three-phase shape: snapshot under
// RLock, rewrite unlocked, cheap publish under the write lock. The WAL
// append under the lock is the deliberate commit-ordering exception.
func (e *Engine) goodCheckpoint(dir string) {
	e.mu.RLock()
	snap := e.snapshotLocked()
	e.mu.RUnlock()
	lists.SaveIndex(dir, snap)
	wal.SyncFile(dir)
	e.mu.Lock()
	e.log.Append(nil)
	e.mu.Unlock()
}

func (e *Engine) snapshotLocked() []byte { return nil }

// flushLocked: the *Locked suffix means the caller holds mu, so the
// deny set applies to the whole body.
func (e *Engine) flushLocked(dir string) {
	wal.SyncDir(dir) // want `fsync blocks every queued query`
	e.log.Append(nil)
}

// badDefer schedules the fsync to run while the lock is still held
// (LIFO: after the deferred Unlock was registered).
func (e *Engine) badDefer(path string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer wal.SyncFile(path) // want `fsync blocks every queued query`
}

// reenter acquires mu while already holding it.
func (e *Engine) reenter() {
	e.mu.RLock()
	e.mu.RLock() // want `already held`
	e.mu.RUnlock()
	e.mu.RUnlock()
}

// inverted takes the checkpoint mutex under mu; the documented order
// is the other way around.
func (e *Engine) inverted() {
	e.mu.Lock()
	e.ckptMu.Lock() // want `ckptMu BEFORE mu`
	e.ckptMu.Unlock()
	e.mu.Unlock()
}

// Invalidate acquires mu itself (like the real engine's), so calling
// it with mu held deadlocks.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
}

func (e *Engine) nested() {
	e.mu.Lock()
	e.Invalidate() // want `calling it with mu held deadlocks`
	e.mu.Unlock()
}

// badWalk hands the layer below a callback that takes the outermost
// lock.
func (e *Engine) badWalk() {
	lists.Walk(func(id uint64) { // want `below the engine layer`
		e.mu.RLock()
		e.mu.RUnlock()
	})
}

// badReplay: same inversion through the wal package.
func (e *Engine) badReplay() {
	wal.Replay(func(seq uint64) { // want `below the engine layer`
		e.mu.Lock()
		e.mu.Unlock()
	})
}

// goodWalk's callback never locks; no finding.
func (e *Engine) goodWalk(total *int) {
	lists.Walk(func(id uint64) {
		*total++
	})
}

// deferredWork defines (but does not run) a closure under the lock;
// the literal's body is not part of the critical section.
func (e *Engine) deferredWork() {
	e.mu.Lock()
	f := func() { wal.SyncFile("x") }
	e.mu.Unlock()
	f()
}

// publish demonstrates a reviewed, documented exception.
func (e *Engine) publish(dir string) {
	e.mu.Lock()
	//lint:allow locksafe startup-only manifest swap, measured sub-millisecond
	os.Rename(dir, dir) // want:suppressed `directory syscalls block`
	e.mu.Unlock()
}
