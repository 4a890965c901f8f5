package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bootTimeout bounds process start to /readyz: a boot failure must fail
// the run, not hang it.
const bootTimeout = 20 * time.Second

// repoRoot walks up from the working directory to the directory holding
// the `module repro` go.mod, so the harness works from the checkout root
// (`go run -C bench .`) and from bench/ itself (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no `module repro` go.mod above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles irgen, irserver and irproxy from the working
// tree into outDir/bin and returns that directory.
func buildBinaries(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/irgen", "./cmd/irserver", "./cmd/irproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort picks a loopback port by bind-and-release.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// proc is one server-side child process in its own process group.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	url  string // HTTP base URL
	once sync.Once
}

// startProc launches bin with args in a fresh process group, logging
// stdout+stderr to logPath.
func startProc(name, bin string, args []string, logPath, url string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Own process group so kill() takes any grandchildren too; Pdeathsig
	// covers the loader itself being SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: lf, url: url}, nil
}

// kill SIGKILLs the process group and reaps it. Safe to call twice.
func (p *proc) kill() {
	p.once.Do(func() {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // group may already be gone
		_ = p.cmd.Wait()                                      // exit status of a killed child carries nothing
		p.log.Close()
	})
}

// logTail returns the last bytes of the process log for boot diagnostics.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitReady polls url+path until it answers 200, the process exits, or
// bootTimeout lapses.
func (p *proc) waitReady(path string) error {
	deadline := time.Now().Add(bootTimeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		if resp, err := hc.Get(p.url + path); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("bench: %s exited during boot:\n%s", p.name, p.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not ready on %s%s within %v:\n%s", p.name, p.url, path, bootTimeout, p.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exited reports whether the child is a zombie or gone (it is only
// reaped in kill, so a crashed child stays a zombie until then).
func (p *proc) exited() bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(b, ')')
	return i < 0 || i+2 >= len(b) || b[i+2] == 'Z'
}

// procUsage is a /proc sample of one process.
type procUsage struct {
	hwmBytes   int64 // VmHWM: peak resident set
	writeBytes int64 // /proc/<pid>/io write_bytes: bytes sent to the block layer
}

// clockTick is USER_HZ; Linux fixes it at 100 for every supported ABI.
const clockTick = 100

// cpuSeconds reads utime+stime from /proc/<pid>/stat; 0 once the process
// is gone, which the sample after the window reports as an error.
func (p *proc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised comm: state is field 3, utime 14,
	// stime 15 (1-based), so indexes 11 and 12 after the split.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // the kernel writes decimal integers there
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return float64(ut+st) / clockTick
}

func (p *proc) usage() (procUsage, error) {
	var u procUsage
	pid := p.cmd.Process.Pid
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	u.hwmBytes = procField(b, "VmHWM:") * 1024
	if b, err = os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		u.writeBytes = procField(b, "write_bytes:")
	}
	return u, nil
}

// procField returns the first integer after key in a /proc key-value file.
func procField(b []byte, key string) int64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}
