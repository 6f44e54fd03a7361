package main

import (
	"bufio"
	"context"
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

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15 (1-based), so 11 and 12 after the name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostSteal returns the machine's steal and total CPU time so far, in
// ticks, from the first line of /proc/stat: the time the hypervisor gave
// this machine's CPUs to someone else.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter reports on standard error how much of the machine the
// hypervisor took away during a timed loop; it is the main cause of
// run-to-run spread on a shared host (see README.md, Steadiness).
type stealMeter struct {
	steal, total int64
	err          error
}

func startSteal() stealMeter {
	s, t, err := hostSteal()
	return stealMeter{s, t, err}
}

func (m stealMeter) report() {
	s, t, err := hostSteal()
	if m.err != nil || err != nil || t <= m.total {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of CPU time during the timed loop\n", 100*float64(s-m.steal)/float64(t-m.total))
}

// procPeakRSSKB returns VmHWM, the process's peak resident set, in KiB.
func procPeakRSSKB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// daemon is one cmd/monitord process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startDaemon launches the binary on a free loopback port and returns
// once /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no monitord binary given (run through run.sh)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start monitord: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "monitord: listening on "); ok {
				addr <- a
			}
		}
		// Drain to EOF so Wait never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		return nil, fmt.Errorf("monitord exited before listening: %v", err)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("monitord did not report its address")
	}
	for i := 0; ; i++ {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 200 {
			d.kill()
			return nil, fmt.Errorf("monitord not healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if it has not ended within ten seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case err := <-d.exited:
		return err
	case <-ctx.Done():
		d.kill()
		return errors.New("monitord ignored SIGTERM")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}
