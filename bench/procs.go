package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
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

// The benchmark drives the real binaries, so it builds them first. Everything
// a run writes lives under bench/out (ignored by git): the binaries, one
// fresh directory per server boot, input schedules, traces and results.

// benchEnv is where the benchmark runs from and what it built.
type benchEnv struct {
	benchDir string // absolute path of bench/
	outDir   string // bench/out
	binDir   string // bench/out/bin
	runDir   string // bench/out/run-<pid>: this invocation's server dirs
	buildS   float64
}

// locateBench finds bench/ from the working directory: `go run -C bench .`
// starts inside it, `go test` too; running the built binary from the repo
// root is tolerated.
func locateBench() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "bench")} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.Contains(data, []byte("module repro/bench")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: run from the repository's bench/ directory (go run -C bench .), not %s", wd)
}

func newEnv() (*benchEnv, error) {
	dir, err := locateBench()
	if err != nil {
		return nil, err
	}
	e := &benchEnv{benchDir: dir, outDir: filepath.Join(dir, "out")}
	e.binDir = filepath.Join(e.outDir, "bin")
	e.runDir = filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	for _, d := range []string{e.binDir, e.runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildServers compiles cmd/precisiond and cmd/precision-worker from the
// checkout's source into bench/out/bin. The time is reported as build_s and
// is not part of setup_s.
func (e *benchEnv) buildServers(ctx context.Context) error {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(filepath.Separator),
		"repro/cmd/precisiond", "repro/cmd/precision-worker")
	cmd.Dir = e.benchDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("bench: go build servers: %w\n%s", err, stderr.String())
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// cleanup removes this invocation's server directories.
func (e *benchEnv) cleanup() { _ = os.RemoveAll(e.runDir) }

// tail keeps the last few KiB written to it — a server's stderr, shown when
// the server dies.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one server subprocess. exited closes when it ends, for whatever
// reason; a server ending before the benchmark stops it fails the run.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr tail
	lines  chan string // stdout lines
	exited chan struct{}
	// waitErr is cmd.Wait's result, valid once exited is closed.
	waitErr error
}

func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, lines: make(chan string, 64), exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // nobody is waiting for more announcements
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// awaitLine returns the remainder of the first stdout line starting with
// prefix. A server that exits first is an error carrying its stderr tail.
func (p *proc) awaitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line := <-p.lines:
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest, nil
			}
		case <-p.exited:
			return "", p.deathError()
		case <-deadline:
			return "", fmt.Errorf("bench: %s did not print %q within %v; stderr tail:\n%s",
				p.name, prefix, timeout, p.stderr.String())
		}
	}
}

func (p *proc) deathError() error {
	return fmt.Errorf("bench: %s exited early (%v); stderr tail:\n%s", p.name, p.waitErr, p.stderr.String())
}

// alive reports nil while the process runs.
func (p *proc) alive() error {
	select {
	case <-p.exited:
		return p.deathError()
	default:
		return nil
	}
}

// stop ends the process and waits for it. sig is tried first (SIGTERM lets
// precisiond close its journal); SIGKILL follows after grace.
func (p *proc) stop(sig syscall.Signal, grace time.Duration) {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.exited:
		return
	case <-time.After(grace):
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// nodeOpts selects the topology a workload runs against.
type nodeOpts struct {
	// fleetWorkers > 0 boots a coordinator with no local execution plus
	// that many one-slot precision-worker processes.
	fleetWorkers int
	// hotBytes sizes the in-memory read tier (-1 = the daemon's default).
	hotBytes int64
}

// cluster is one booted topology: the daemon, its workers, their directory.
type cluster struct {
	dir     string
	base    string // http://host:port of precisiond
	daemon  *proc
	workers []*proc
	journal string
}

// all lists every server process, daemon first.
func (c *cluster) all() []*proc { return append([]*proc{c.daemon}, c.workers...) }

// alive reports the first server that has exited.
func (c *cluster) alive() error {
	for _, p := range c.all() {
		if err := p.alive(); err != nil {
			return err
		}
	}
	return nil
}

// kill ends every server immediately. The directory is fresh per boot and
// discarded afterwards, so nothing needs a graceful shutdown.
func (c *cluster) kill() {
	for _, p := range c.all() {
		p.stop(syscall.SIGKILL, 0)
	}
}

// bootDaemon starts precisiond on dir's cache and journal and waits until
// /healthz answers ok.
func (e *benchEnv) bootDaemon(dir string, opts nodeOpts) (*cluster, error) {
	c := &cluster{dir: dir, journal: filepath.Join(dir, "journal.ndjson")}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-cache", filepath.Join(dir, "cache"),
		"-journal", c.journal,
		"-log-level", "warn",
	}
	if opts.fleetWorkers > 0 {
		args = append(args, "-workers", "0")
	} else {
		args = append(args, "-workers", "2", "-lanes", "2")
	}
	if opts.hotBytes >= 0 {
		args = append(args, "-hot-bytes", strconv.FormatInt(opts.hotBytes, 10))
	}
	p, err := startProc("precisiond", filepath.Join(e.binDir, "precisiond"), args...)
	if err != nil {
		return nil, err
	}
	c.daemon = p
	addr, err := p.awaitLine("listening on ", 10*time.Second)
	if err != nil {
		c.kill()
		return nil, err
	}
	c.base = "http://" + strings.TrimSpace(addr)
	if err := awaitHealthy(c.base, p, 10*time.Second); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// bootWorkers starts the cluster's fleet workers and waits until each has
// registered with the coordinator.
func (e *benchEnv) bootWorkers(c *cluster, n int) error {
	for i := 0; i < n; i++ {
		w, err := startProc(fmt.Sprintf("precision-worker-%d", i), filepath.Join(e.binDir, "precision-worker"),
			"-coordinator", c.base, "-slots", "1", "-lanes", "1",
			"-read-addr", "127.0.0.1:0", "-name", fmt.Sprintf("node-%d", i), "-log-level", "warn")
		if err != nil {
			return err
		}
		c.workers = append(c.workers, w)
	}
	for _, w := range c.workers {
		if _, err := w.awaitLine("registered as ", 10*time.Second); err != nil {
			return err
		}
	}
	return nil
}

func awaitHealthy(base string, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		if aerr := p.alive(); aerr != nil {
			return aerr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not healthy within %v: %v", p.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procUsage is one reading of a process's CPU and memory from /proc.
type procUsage struct {
	cpuS  float64 // user+system seconds consumed so far
	rssMB float64 // VmRSS, MiB
	hwmMB float64 // VmHWM (peak resident set), MiB
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux this benchmark runs on.
const clockTick = 100

func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name may contain spaces; fields are counted after ")".
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(fields[11], 64) // field 14
	stime, _ := strconv.ParseFloat(fields[12], 64) // field 15
	u.cpuS = (utime + stime) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "VmRSS" && k != "VmHWM") {
			continue
		}
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if k == "VmRSS" {
			u.rssMB = kb / 1024
		} else {
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

// usage reads the daemon and the workers separately: the daemon's share and
// the workers' share of CPU are different layers.
func (c *cluster) usage() (daemon, workers procUsage, err error) {
	if daemon, err = readProc(c.daemon.pid()); err != nil {
		return
	}
	for _, w := range c.workers {
		u, werr := readProc(w.pid())
		if werr != nil {
			return daemon, workers, werr
		}
		workers.cpuS += u.cpuS
		workers.rssMB += u.rssMB
		workers.hwmMB += u.hwmMB
	}
	return
}

// selfCPU is the benchmark process's own user+system seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsType names the filesystem holding path; journal fsync cost depends on
// it, so every result records it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
