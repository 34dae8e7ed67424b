package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etude/internal/httpapi"
	"etude/internal/metrics"
)

// serverProc is one spawned etude-server child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	logs   *tailBuffer
	exited chan struct{}
	// Setup is the time from exec to the first 200 on /ping.
	Setup time.Duration
}

// procs tracks every live child so an interrupted benchmark still kills
// and reaps them.
var procs struct {
	sync.Mutex
	live map[*serverProc]bool
}

// spawnServer starts bin with args on a free loopback port and waits until
// /ping answers 200, or ctx ends.
func spawnServer(ctx context.Context, bin string, w Workload, traced bool) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &serverProc{
		addr:   "127.0.0.1:" + strconv.Itoa(port),
		logs:   &tailBuffer{max: 8 << 10},
		exited: make(chan struct{}),
	}
	p.cmd = exec.Command(bin, w.ServerArgs(port, traced)...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	// The kernel kills the child if the benchmark dies without cleaning up.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*serverProc]bool{}
	}
	procs.live[p] = true
	procs.Unlock()
	go func() {
		_ = p.cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitReady(ctx); err != nil {
		p.Stop()
		return nil, err
	}
	p.Setup = time.Since(start)
	return p, nil
}

// waitReady polls /ping every 100 µs until it answers 200. The wait is a
// nanosleep: Go's timers would round it up to a millisecond.
func (p *serverProc) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	url := "http://" + p.addr + httpapi.ReadyPath
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited during start-up: %s", p.logs.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		ts := syscall.NsecToTimespec(int64(100 * time.Microsecond))
		_ = syscall.Nanosleep(&ts, nil)
	}
	return fmt.Errorf("server not ready after 60s: %s", p.logs.String())
}

// Stop kills the child and waits until it has exited.
func (p *serverProc) Stop() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
}

// stopAll kills and reaps every child still running.
func stopAll() {
	procs.Lock()
	live := make([]*serverProc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.Stop()
	}
}

// PeakRSSMB reads the child's VmHWM from /proc.
func (p *serverProc) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// CPUTime is the server's user plus system CPU time so far, all threads.
func (p *serverProc) CPUTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server CPU time: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", p.cmd.Process.Pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; it is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// stageTotals is a scrape of the per-stage sums (seconds) and counts.
type stageTotals struct {
	Sum   map[string]float64
	Count map[string]float64
}

// Scrape reads the server's /metrics page.
func (p *serverProc) Scrape() (stageTotals, error) {
	st := stageTotals{Sum: map[string]float64{}, Count: map[string]float64{}}
	resp, err := http.Get("http://" + p.addr + httpapi.MetricsPath)
	if err != nil {
		return st, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		return st, fmt.Errorf("parsing metrics: %w", err)
	}
	for _, s := range samples {
		switch s.Name {
		case "etude_stage_seconds_sum":
			st.Sum[s.Labels["stage"]] = s.Value
		case "etude_stage_seconds_count":
			st.Count[s.Labels["stage"]] = s.Value
		}
	}
	return st, nil
}

// minus returns the per-stage deltas t − prev.
func (t stageTotals) minus(prev stageTotals) stageTotals {
	d := stageTotals{Sum: map[string]float64{}, Count: map[string]float64{}}
	for k, v := range t.Sum {
		d.Sum[k] = v - prev.Sum[k]
	}
	for k, v := range t.Count {
		d.Count[k] = v - prev.Count[k]
	}
	return d
}

// add accumulates another delta into t.
func (t *stageTotals) add(d stageTotals) {
	if t.Sum == nil {
		t.Sum, t.Count = map[string]float64{}, map[string]float64{}
	}
	for k, v := range d.Sum {
		t.Sum[k] += v
	}
	for k, v := range d.Count {
		t.Count[k] += v
	}
}

// MeanUS is the mean of one stage in microseconds (0 with no samples).
func (t stageTotals) MeanUS(stage string) float64 {
	if t.Count[stage] == 0 {
		return 0
	}
	return t.Sum[stage] / t.Count[stage] * 1e6
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b.Write(p)
	if over := t.b.Len() - t.max; over > 0 {
		t.b.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.b.String())
}
