package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes lives, inside
// the checkout and named in the root .gitignore.
const buildDir = ".bench_build"

// repoRoot finds the directory holding the agl module, so the benchmark
// works from the root of a checkout and from bench/ alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, cand := range []string{dir, filepath.Dir(dir)} {
		if b, err := os.ReadFile(filepath.Join(cand, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module agl\n")) {
			return cand, nil
		}
	}
	return "", fmt.Errorf("no agl module at or above %s: run from the root of a checkout", dir)
}

// buildServer compiles cmd/aglserve from the checkout's sources.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "aglserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aglserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aglserve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding port 0 and releasing it, so
// a port left over from a crashed run is never reused by name.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is one aglserve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	done    chan struct{} // closed once the process has been waited for
}

// children tracks every process this run started, so any exit path can
// reap them.
var children []*server

func startServer(bin, workDir string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, done: make(chan struct{}),
		logPath: filepath.Join(workDir, fmt.Sprintf("aglserve-%d.log", len(children)))}
	logFile, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Dir = workDir
	s.cmd.Env = append(os.Environ(), "TMPDIR="+workDir)
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	// A child must not outlive the benchmark even if the benchmark is
	// killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	children = append(children, s)
	return s, nil
}

// waitHealthy polls /healthz until the server answers or the deadline
// passes; a child that exits early fails at once.
func (s *server) waitHealthy(timeout time.Duration) error {
	c := newWireClient(s.addr)
	c.timeout = time.Second
	defer c.close()
	req := getRequest("/healthz")
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if status, _, err := c.do(req); err == nil && status == 200 {
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("aglserve exited during start-up:\n%s", s.readLog())
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("aglserve not healthy after %v:\n%s", timeout, s.readLog())
}

func (s *server) readLog() string {
	b, _ := os.ReadFile(s.logPath) // best effort: the log only decorates an error
	return string(b)
}

// getJSON fetches path and decodes the JSON body into v.
func (s *server) getJSON(path string, v any) error {
	c := newWireClient(s.addr)
	defer c.close()
	status, body, err := c.do(getRequest(path))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// reapChildren kills every child still running and waits for each.
func reapChildren() {
	for _, s := range children {
		s.cmd.Process.Kill()
		<-s.done
	}
	children = nil
}

// cpuSeconds is the user+system CPU time a process has consumed so far,
// from /proc/<pid>/stat (kernel clock ticks, 100 per second on Linux).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from after it.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
