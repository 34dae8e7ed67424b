package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// sloLimitMS is the paper's 50 ms latency threshold, applied at p99.
const sloLimitMS = 50

// maxPacerLateMS marks an open-loop phase invalid: past it the generator
// itself, not a busy lane, delayed the requests.
const maxPacerLateMS = 2

// outcomes counts how every sent request ended.
type outcomes struct {
	Sent, OK, TooMany, Unavailable, Timeout, Other, Transport int64
}

func (o outcomes) Failed() int64 {
	return o.TooMany + o.Unavailable + o.Timeout + o.Other + o.Transport
}

// count records one request's final status; 0 is a transport error.
func (o *outcomes) count(status int) {
	o.Sent++
	switch status {
	case http.StatusOK:
		o.OK++
	case http.StatusTooManyRequests:
		o.TooMany++
	case http.StatusServiceUnavailable:
		o.Unavailable++
	case http.StatusGatewayTimeout:
		o.Timeout++
	case 0:
		o.Transport++
	default:
		o.Other++
	}
}

func (o *outcomes) add(p outcomes) {
	o.Sent += p.Sent
	o.OK += p.OK
	o.TooMany += p.TooMany
	o.Unavailable += p.Unavailable
	o.Timeout += p.Timeout
	o.Other += p.Other
	o.Transport += p.Transport
}

func (o outcomes) String() string {
	return fmt.Sprintf("sent %d ok %d 429 %d 503 %d 504 %d other %d transport %d",
		o.Sent, o.OK, o.TooMany, o.Unavailable, o.Timeout, o.Other, o.Transport)
}

// phase accumulates the slices of one load phase.
type phase struct {
	name string
	open bool
	rate float64
	// weight is the phase's share of every cycle, in slice units.
	weight int

	out outcomes
	// Millisecond samples of 200 responses: latency (from due time in the
	// open loop, from send in the closed loop), send − due, pacer release
	// − due, the X-Inference-Duration header, and send-to-done minus it.
	lat, lag, pacer, inference, overhead []float64
	sliceRPS                             []float64
	measured                             time.Duration
	// Requests in the system at each open-loop slice's midpoint and end.
	qMid, qEnd int
	slices     int
	stages     stageTotals
}

// add folds one slice of length d into the phase.
func (p *phase) add(recs []rec, d time.Duration) {
	p.slices++
	p.measured += d
	ok := 0
	for _, r := range recs {
		p.out.count(r.status)
		if p.open {
			if r.due <= d/2 && r.done > d/2 {
				p.qMid++
			}
			if r.done > d {
				p.qEnd++
			}
		}
		if r.status != http.StatusOK {
			continue
		}
		// A closed-loop request finishing after the window counts for
		// latency but not for the rate.
		if p.open || r.done <= d {
			ok++
		}
		p.lat = append(p.lat, ms(r.done-r.due))
		p.lag = append(p.lag, ms(r.send-r.due))
		p.pacer = append(p.pacer, ms(r.release-r.due))
		p.inference = append(p.inference, ms(r.inference))
		p.overhead = append(p.overhead, ms(r.done-r.send-r.inference))
	}
	p.sliceRPS = append(p.sliceRPS, float64(ok)/d.Seconds())
}

func (p *phase) failFrac() float64 {
	if p.out.Sent == 0 {
		return 1
	}
	return float64(p.out.Failed()) / float64(p.out.Sent)
}

// backlogGrew reports whether the requests in the system at slice ends
// exceed those at slice midpoints by half, beyond two per lane: a stable
// open loop has the same queue at both instants, an overloaded one a queue
// that grows with time.
func (p *phase) backlogGrew(lanes int) bool {
	return p.qEnd > 2*lanes*p.slices && float64(p.qEnd) > 1.5*float64(p.qMid)
}

// generatorLate reports whether the pacer itself released requests late.
func (p *phase) generatorLate() bool {
	return p.open && quantile(p.pacer, 0.99) > maxPacerLateMS
}

// meetsSLO applies the serving limit: p99 within 50 ms, at most 1% failed,
// and no growing backlog.
func (p *phase) meetsSLO(lanes int) bool {
	return len(p.lat) > 0 && quantile(p.lat, 0.99) <= sloLimitMS && p.failFrac() <= 0.01 && !p.backlogGrew(lanes)
}

// goodput is 200 responses per second over the phase's measured time.
func (p *phase) goodput() float64 { return float64(p.out.OK) / p.measured.Seconds() }

func (p *phase) report(lanes int) string {
	var b strings.Builder
	if p.open {
		fmt.Fprintf(&b, "phase %s: open loop %.0f req/s", p.name, p.rate)
	} else {
		fmt.Fprintf(&b, "phase %s: closed loop on %d connections", p.name, lanes)
	}
	fmt.Fprintf(&b, ", %d slices, %.2f s | %s | p50 %.3f ms p99 %.3f ms (n=%d)",
		p.slices, p.measured.Seconds(), p.out, quantile(p.lat, 0.5), quantile(p.lat, 0.99), len(p.lat))
	if p.open {
		valid := "valid"
		if p.generatorLate() {
			valid = fmt.Sprintf("INVALID: generator late (pacer p99 > %d ms)", maxPacerLateMS)
		}
		fmt.Fprintf(&b, " | lag p99 %.3f ms pacer p99 %.3f ms | in system mid %d end %d | %s",
			quantile(p.lag, 0.99), quantile(p.pacer, 0.99), p.qMid, p.qEnd, valid)
	} else {
		fmt.Fprintf(&b, " | median slice %.1f req/s", median(p.sliceRPS))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile interpolates linearly between order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
