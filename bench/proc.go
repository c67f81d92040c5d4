package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds one op; an op that exceeds it is killed and counted
// as failed.
const opTimeout = 120 * time.Second

// env is where a run lives: everything the benchmark writes goes under
// one directory inside the checkout (the driver forbids writes outside
// it, and .gitignore names it).
type env struct {
	root    string   // the checkout: cwd of the harness
	workDir string   // <root>/.bench_build/run-<pid>, removed on exit
	binDir  string   // <root>/.bench_build/bin, kept: the build is reused across runs
	childEn []string // environment of every child: GOMAXPROCS pinned
	procs   int      // GOMAXPROCS exported to children
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "maimon")); err != nil {
		return nil, fmt.Errorf("run from the repository root (no cmd/maimon under %s): %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:    root,
		workDir: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		binDir:  filepath.Join(build, "bin"),
		// go 1.24 sizes GOMAXPROCS from the host's CPUs, not the
		// container's quota; cap it so a 64-core host with a 2-core quota
		// does not time-slice 64 runnable threads.
		procs: min(runtime.NumCPU(), 4),
	}
	for _, d := range []string{e.workDir, e.binDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	e.childEn = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs))
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.workDir) }

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// tempDir makes a fresh directory under the run's work dir.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.workDir, pattern)
}

// buildBinaries compiles maimon and maimond from the checkout's source.
// Up to date, it is a sub-second no-op; the first build of a checkout
// fills the Go build cache (run.sh keeps that inside the checkout too).
func (e *env) buildBinaries(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/maimon", "./cmd/maimond")
	cmd.Dir = e.root
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// childEnv selects child mode when the harness re-executes itself; its
// value names the body to run (main.go dispatches).
const childEnv = "MAIMON_BENCH_CHILD"

// childStats re-executes the harness in child mode with args, waits for
// it, and returns its standard output and what the kernel accounted to it.
func (e *env) childStats(ctx context.Context, mode string, args ...string) ([]byte, procStats, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, procStats{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(e.childEn, childEnv+"="+mode)
	cmd.Dir = e.workDir
	cmd.WaitDelay = 5 * time.Second
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	out, err := cmd.Output() // waits for exit on every path
	if err != nil {
		return nil, procStats{}, fmt.Errorf("%s child: %w\n%s", mode, err, stderr.String())
	}
	return out, statsOf(cmd, time.Since(start)), nil
}

func (e *env) child(ctx context.Context, mode string, args ...string) ([]byte, error) {
	out, _, err := e.childStats(ctx, mode, args...)
	return out, err
}

// procStats is what the kernel accounted to one finished process.
type procStats struct {
	Wall  time.Duration
	CPU   time.Duration // user + system
	RSSMB float64       // peak resident set
}

func statsOf(cmd *exec.Cmd, wall time.Duration) procStats {
	st := procStats{Wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		st.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		st.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return st
}

// cliRun is one finished `maimon` invocation.
type cliRun struct {
	procStats
	Stdout      []byte
	FirstResult time.Duration // spawn → first result line; 0 if none was seen
}

// runCLI spawns bin with args, notes when the first result line arrives
// (a `scheme ` line on stderr, or a stdout line stdoutResult accepts), and
// waits for exit. The process is killed at opTimeout or when ctx ends; either way
// it has been waited on when runCLI returns.
func runCLI(ctx context.Context, e *env, bin string, args []string, stdoutResult func(string) bool) (cliRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = e.childEn
	cmd.Dir = e.workDir
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return cliRun{}, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return cliRun{}, err
	}
	var run cliRun
	var mu sync.Mutex
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	markFirst := func() {
		mu.Lock()
		if run.FirstResult == 0 {
			run.FirstResult = time.Since(start)
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	var out bytes.Buffer
	var errTail lineTail
	wg.Add(2)
	go func() {
		defer wg.Done()
		rd := bufio.NewReaderSize(stdout, 64<<10)
		for {
			line, err := rd.ReadBytes('\n')
			out.Write(line)
			if stdoutResult != nil && stdoutResult(string(line)) {
				markFirst()
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			errTail.add(line)
			if _, ok := schemeLine(line); ok {
				markFirst()
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line past the scanner's cap must not block the child
	}()
	wg.Wait() // pipes drained before Wait, as os/exec requires
	err = cmd.Wait()
	run.procStats = statsOf(cmd, time.Since(start))
	run.Stdout = out.Bytes()
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("killed after %s: %w", time.Since(start).Round(time.Millisecond), ctx.Err())
		}
		return run, fmt.Errorf("%s %s: %w\nstderr tail:\n%s", filepath.Base(bin), strings.Join(args, " "), err, errTail.String())
	}
	return run, nil
}

// lineTail keeps the last few stderr lines for error reports.
type lineTail struct{ lines []string }

func (t *lineTail) add(s string) {
	if len(t.lines) == 8 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, s)
}

func (t *lineTail) String() string { return strings.Join(t.lines, "\n") }

// schemeLine recognises the line `maimon -v` writes to stderr the moment
// a scheme is synthesized ("scheme   1: {…} J=0.407") and returns its
// ordinal; "[schemes] 1 schemes from …" progress lines are not it.
func schemeLine(line string) (ordinal int, ok bool) {
	if !strings.HasPrefix(line, "scheme ") {
		return 0, false
	}
	_, err := fmt.Sscanf(line, "scheme %d:", &ordinal)
	return ordinal, err == nil
}

// freePort asks the kernel for an unused loopback port by binding :0 and
// releasing it; the daemon binds it a moment later.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one running maimond.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	start time.Time
	errs  bytes.Buffer
	done  bool
}

// startDaemon spawns maimond on a fresh port and waits until /v1/readyz
// answers. On any failure the process is already killed and waited on.
func startDaemon(ctx context.Context, e *env, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{url: "http://" + addr}
	d.cmd = exec.Command(e.bin("maimond"), append([]string{"-addr", addr, "-log-level", "error"}, args...)...)
	d.cmd.Env = e.childEn
	d.cmd.Dir = e.workDir
	d.cmd.Stderr = &d.errs
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	client := newClient(d.url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := client.ready(ctx); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("maimond on %s never became ready\n%s", addr, d.errs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to shut down (SIGTERM: it persists spill indexes),
// kills it if it has not exited within 10 s, and waits. Idempotent.
func (d *daemon) stop() procStats {
	if d.done {
		return statsOf(d.cmd, 0)
	}
	d.done = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
		}
	}()
	err := d.cmd.Wait()
	close(exited)
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		fmt.Fprintf(os.Stderr, "bench: waiting for maimond: %v\n", err)
	}
	return statsOf(d.cmd, time.Since(d.start))
}
