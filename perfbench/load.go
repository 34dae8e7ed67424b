package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"etude/internal/httpapi"
	"etude/internal/workload"
)

// inputs are the generated sessions and their pre-encoded HTTP requests.
// The server sees only these bytes.
type inputs struct {
	sessions [][]int64
	bodies   [][]byte
	reqs     [][]byte
	next     atomic.Int64
}

// makeInputs draws n sessions from the Algorithm 1 generator with the bol.com
// marginals under seed, and encodes each as a POST /predictions request.
func makeInputs(w Workload, seed int64, n int) (*inputs, error) {
	al, ac := workload.BolMarginals()
	g, err := workload.NewGenerator(workload.Spec{CatalogSize: w.Catalog, AlphaLength: al, AlphaClicks: ac, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for i := 0; i < n; i++ {
		s := g.NextSession()
		body, err := json.Marshal(httpapi.PredictRequest{SessionID: int64(i), Items: s})
		if err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			httpapi.PredictPath, len(body), body)
		in.sessions = append(in.sessions, s)
		in.bodies = append(in.bodies, body)
		in.reqs = append(in.reqs, []byte(req))
	}
	return in, nil
}

// pick returns the index of the next session to send, cycling the pool.
func (in *inputs) pick() int { return int(in.next.Add(1)-1) % len(in.reqs) }

// lane is one keep-alive connection of the generator. A lane sends one
// request at a time, so the number of lanes bounds the requests in flight.
type lane struct {
	addr     string
	conn     net.Conn
	br       *bufio.Reader
	deadline time.Time
	buf      []byte
	chk      *checker
	// sent counts requests attempted, independently of the outcome records.
	sent int64
}

func newLanes(n int, addr string, chk *checker) []*lane {
	ls := make([]*lane, n)
	for i := range ls {
		ls[i] = &lane{addr: addr, chk: chk, buf: make([]byte, 4096)}
	}
	return ls
}

func closeLanes(ls []*lane) {
	for _, l := range ls {
		l.reset()
	}
}

func (l *lane) reset() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

func (l *lane) setDeadline(t time.Time) {
	l.deadline = t
	if l.conn != nil {
		_ = l.conn.SetDeadline(t)
	}
}

// do sends request s and reads the response. Status 0 is a transport
// error; the lane then reconnects on its next request.
func (l *lane) do(in *inputs, s int) (status int, inference time.Duration) {
	if l.conn == nil {
		c, err := net.Dial("tcp", l.addr)
		if err != nil {
			l.sent++
			return 0, 0
		}
		_ = c.SetDeadline(l.deadline)
		l.conn, l.br = c, bufio.NewReaderSize(c, 8192)
	}
	l.sent++
	if _, err := l.conn.Write(in.reqs[s]); err != nil {
		l.reset()
		return 0, 0
	}
	resp, err := http.ReadResponse(l.br, nil)
	if err != nil {
		l.reset()
		return 0, 0
	}
	body := l.buf[:0]
	if n := resp.ContentLength; n >= 0 && int(n) <= cap(l.buf) {
		body = l.buf[:n]
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		l.reset()
		return 0, 0
	}
	if resp.Close {
		l.reset()
	}
	if resp.StatusCode == http.StatusOK {
		l.chk.verify(s, in, body)
	}
	return resp.StatusCode, httpapi.InferenceDuration(resp.Header)
}

// rec is one request's timeline, as offsets from the start of its slice.
// In the closed loop due, release and send coincide.
type rec struct {
	due, release, send, done time.Duration
	inference                time.Duration
	status                   int
}

// runOpen offers the arrival schedule dues to the lanes as an open loop:
// each request becomes due at its time whether or not earlier ones have
// been answered, and waits for a free lane if none is. The pacer runs on
// the calling goroutine.
func runOpen(lanes []*lane, in *inputs, dues []time.Duration) []rec {
	recs := make([]rec, len(dues))
	// Sized to the number of sends, so the pacer never blocks on a busy lane.
	jobs := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range lanes {
		l.setDeadline(start.Add(dues[len(dues)-1] + 30*time.Second))
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for i := range jobs {
				r := &recs[i]
				r.send = time.Since(start)
				r.status, r.inference = l.do(in, in.pick())
				r.done = time.Since(start)
			}
		}(l)
	}
	pace(start, dues, func(i int) {
		recs[i].due = dues[i]
		recs[i].release = time.Since(start)
		jobs <- i
	})
	close(jobs)
	wg.Wait()
	return recs
}

// runClosed keeps every lane busy back to back for d.
func runClosed(lanes []*lane, in *inputs, d time.Duration) []rec {
	start := time.Now()
	per := make([][]rec, len(lanes))
	var wg sync.WaitGroup
	for li, l := range lanes {
		l.setDeadline(start.Add(d + 30*time.Second))
		wg.Add(1)
		go func(li int, l *lane) {
			defer wg.Done()
			for {
				send := time.Since(start)
				if send >= d {
					return
				}
				status, inf := l.do(in, in.pick())
				per[li] = append(per[li], rec{due: send, release: send, send: send, done: time.Since(start), inference: inf, status: status})
			}
		}(li, l)
	}
	wg.Wait()
	var out []rec
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// pace calls release(i) at each due time. Go's timers wake about 1 ms late
// on Linux for sub-millisecond sleeps, and a thread woken on a CPU the
// server keeps busy waits for the next scheduler tick, up to 4 ms. So the
// pacer sleeps in nanosleep with a 1 ns timer slack on its own OS thread,
// raised to real-time priority where the process may do so; lateness that
// remains is reported as the pacer lag.
func pace(start time.Time, dues []time.Duration, release func(int)) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack, schedOther, schedFIFO = 29, 0, 1
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	// Hand the thread back to the runtime with the default slack (0 selects
	// it) and, if raised, at normal priority.
	defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	prio := int32(1)
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&prio))); errno == 0 {
		defer func() {
			prio = 0
			_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedOther, uintptr(unsafe.Pointer(&prio)))
		}()
	}
	for i, due := range dues {
		for {
			rem := due - time.Since(start)
			if rem <= 0 {
				break
			}
			ts := syscall.NsecToTimespec(int64(rem))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
		release(i)
	}
}
