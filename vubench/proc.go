package main

// Server processes and the host counters read around each phase.

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
	"syscall"
	"time"
)

// A proc is one running vuserved.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches vuserved with args plus a fresh loopback address,
// logging to logPath.
func startServer(bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The kernel kills the server if the benchmark dies without
	// stopping it (a panic, a signal), so no server outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server tells nothing
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(url string, done <-chan struct{}, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-done:
			return fmt.Errorf("%s exited before it was ready", url)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", url, limit)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (p *proc) ready(limit time.Duration) error { return waitReady(p.url, p.done, limit) }

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-p.done
}

// cpuTicks is the process's user plus system CPU in clock ticks, from
// /proc/<pid>/stat.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for pid %d", p.cmd.Process.Pid)
	}
	return ut + st, nil
}

// peakRSSKiB is the process's VmHWM.
func (p *proc) peakRSSKiB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// ticksPerSecond is USER_HZ, the unit of /proc CPU and steal counters;
// it is 100 on every Linux ABI this runs on.
const ticksPerSecond = 100

// stealTicks is the host's total steal time from /proc/stat.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// copyDir copies the regular files of src into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
