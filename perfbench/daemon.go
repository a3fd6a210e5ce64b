package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running archlined process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	setup   time.Duration
	outDone chan struct{}
}

// startDaemon execs archlined on an ephemeral loopback port and returns
// once GET /healthz answers 200. setup is the time from exec to that
// first 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// stderr carries one JSON log record per request; /dev/null keeps
	// the cost of formatting them without a reader to fall behind.
	cmd.Stderr = nil
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting archlined: %w", err)
	}
	d := &daemon{cmd: cmd, outDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.outDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "archlined listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case d.base = <-addr:
	case <-d.outDone:
		_ = d.kill()
		return nil, errors.New("archlined exited before listening")
	case <-time.After(30 * time.Second):
		_ = d.kill()
		return nil, errors.New("archlined did not announce its address within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = d.kill()
			return nil, errors.New("archlined /healthz did not answer 200 within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain, killing the
// process if it has not exited after 15s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		<-d.outDone
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		<-d.outDone
		return errors.New("archlined did not drain within 15s")
	}
}

func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	err := d.cmd.Wait()
	<-d.outDone
	return err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// measureSetup starts and stops the daemon n times and returns the
// median setup time in seconds, then starts it once more for the run.
func measureSetup(n int, bin string, args ...string) (float64, *daemon, error) {
	var setups []time.Duration
	for i := 0; i < n; i++ {
		d, err := startDaemon(bin, args...)
		if err != nil {
			return 0, nil, err
		}
		setups = append(setups, d.setup)
		if err := d.stop(); err != nil {
			return 0, nil, fmt.Errorf("stopping archlined: %w", err)
		}
	}
	d, err := startDaemon(bin, args...)
	if err != nil {
		return 0, nil, err
	}
	setups = append(setups, d.setup)
	return quantileDur(setups, 0.5, time.Second), d, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads a process's utime+stime from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches /metrics and sums every sample by metric name (label
// sets folded together).
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// hostCPU reads the host-wide busy and steal jiffies from /proc/stat.
// Steal is time this VM's vCPUs were runnable but not running: on a
// shared host it is the main source of latency noise, so runs report it.
func hostCPU() (busy, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// stealMeter measures the share of all CPU time stolen over an interval.
type stealMeter struct{ busy, steal int64 }

func startSteal() stealMeter {
	b, s, _ := hostCPU()
	return stealMeter{b, s}
}

// share returns steal / (busy + steal) since the meter started.
func (m stealMeter) share() float64 {
	b, s, err := hostCPU()
	if err != nil || b+s-m.busy-m.steal <= 0 {
		return 0
	}
	return float64(s-m.steal) / float64(b+s-m.busy-m.steal)
}
