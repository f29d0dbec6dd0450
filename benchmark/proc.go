package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gsgcn/pkg/client"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU fields. It
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTimes is a process's accumulated CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) may hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (cpuTimes, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	tick := time.Second / clockTick
	return cpuTimes{user: time.Duration(ut) * tick, sys: time.Duration(st) * tick}, nil
}

// parseStatusKB reads one "Key:   N kB" line from the contents of
// /proc/<pid>/status and returns N in kB.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// selfCPU is this process's CPU time so far, to the microsecond
// (/proc counts in 10 ms ticks, too coarse for one training epoch).
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument can fail
	}
	return cpuTimes{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// procCPU reads a live process's CPU times from /proc; pid 0 means
// this process.
func procCPU(pid int) (cpuTimes, error) {
	raw, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(string(raw))
}

// procRSSMB reads a live process's resident set size.
func procRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(raw), "VmRSS")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, so a collision is possible;
// startServer retries with fresh ports when the server fails to bind.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// server is one running gsgcn-serve subprocess.
type server struct {
	cmd      *exec.Cmd
	waited   chan struct{} // closed once cmd.Wait has returned
	waitErr  error
	httpAddr string // "http://127.0.0.1:port"
	tcpAddr  string // "127.0.0.1:port"
	ready    time.Duration
	health   *client.Health
	logPath  string
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// startServer execs bin with args plus fresh -addr/-wire-addr ports
// and waits for /healthz to answer 200. The returned ready time runs
// from exec to that answer.
func startServer(ctx context.Context, bin string, args []string, logDir string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		s, retry, err := startServerOnce(ctx, bin, args, logDir)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if !retry {
			break
		}
	}
	return nil, lastErr
}

func startServerOnce(ctx context.Context, bin string, args []string, logDir string) (s *server, retry bool, err error) {
	hp, err := freePort()
	if err != nil {
		return nil, false, err
	}
	tp, err := freePort()
	if err != nil {
		return nil, false, err
	}
	logf, err := os.CreateTemp(logDir, "serve-*.log")
	if err != nil {
		return nil, false, err
	}
	defer logf.Close()
	s = &server{
		httpAddr: fmt.Sprintf("http://127.0.0.1:%d", hp),
		tcpAddr:  fmt.Sprintf("127.0.0.1:%d", tp),
		waited:   make(chan struct{}),
		logPath:  logf.Name(),
	}
	full := append(append([]string(nil), args...),
		"-addr", fmt.Sprintf("127.0.0.1:%d", hp),
		"-wire-addr", s.tcpAddr,
		"-no-access-log")
	s.cmd = exec.Command(bin, full...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	// The server must not outlive the benchmark, however it dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, false, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.waited)
	}()
	ops := client.NewOps(s.httpAddr, "", nil)
	for {
		h, herr := ops.Health(ctx)
		if herr == nil && h.Status == "ok" {
			s.ready = time.Since(start)
			s.health = h
			return s, false, nil
		}
		select {
		case <-s.waited:
			logTail, _ := os.ReadFile(s.logPath)
			bindFail := strings.Contains(string(logTail), "address already in use")
			return nil, bindFail, fmt.Errorf("%s exited before it was ready: %v\n%s", filepath.Base(bin), s.waitErr, tail(string(logTail), 10))
		case <-ctx.Done():
			s.stop()
			return nil, false, fmt.Errorf("waiting for %s to be ready: %w", filepath.Base(bin), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop terminates the server and waits until it has exited: SIGTERM
// first (a clean drain), SIGKILL if that takes more than 5 s.
func (s *server) stop() {
	select {
	case <-s.waited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-s.waited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waited
	}
}

func tail(s string, lines int) string {
	l := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(l) > lines {
		l = l[len(l)-lines:]
	}
	return strings.Join(l, "\n")
}
