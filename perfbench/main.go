// Command perfbench is the repository's serving benchmark. It spawns a real
// etude-server on loopback, drives it from one generator process holding at
// most nproc keep-alive connections, checks every response, and prints one
// JSON result line.
//
// A run without -trace gives the end-to-end metrics; a run with -trace 1
// gives the per-layer metrics from the benchmark's own timings, the
// server's -trace stage summaries and a replay of each layer's public
// functions on the same recorded requests. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload groceries-large --seed 7 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"etude/internal/model"
	"etude/internal/workload"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run's result line, each gated by
// a bound in BENCHMARK.json. They were chosen for holding steady from run
// to run on a shared 2-vCPU VM; see README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_req", "us"},
	{"sat.p50_ms", "ms"},
	{"ok_frac", "ratio"},
}

// reported are end-to-end metrics the untraced run prints beside the result
// line but does not gate: on a shared VM their run-to-run spread is wider
// than any bound the benchmark may set.
var reported = []metricSpec{
	{"sat_rps", "1/s"},
	{"sat.p99_ms", "ms"},
	{"lo.p50_ms", "ms"},
	{"lo.p99_ms", "ms"},
	{"hi.p50_ms", "ms"},
	{"hi.p99_ms", "ms"},
	{"slo_rps", "1/s"},
	{"fail_frac", "ratio"},
}

var perLayer = []metricSpec{
	{"bench.lo.lag_p99_ms", "ms"},
	{"bench.hi.lag_p99_ms", "ms"},
	{"bench.lo.pacer_p99_ms", "ms"},
	{"bench.hi.pacer_p99_ms", "ms"},
	{"bench.invalid_phases", "count"},
	{"httpapi.decode_ns", "ns"},
	{"httpapi.decode_allocs", "count"},
	{"httpapi.encode_ns", "ns"},
	{"httpapi.encode_allocs", "count"},
	{"server.inference_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"server.admission_us", "us"},
	{"server.queue_wait_us", "us"},
	{"server.sat.queue_wait_us", "us"},
	{"server.serialize_us", "us"},
	{"server.shed", "count"},
	{"model.embedding_us", "us"},
	{"model.encoder_us", "us"},
	{"model.staged.embedding_us", "us"},
	{"model.staged.encoder_us", "us"},
	{"model.jit_us", "us"},
	{"tensor.matvec_us", "us"},
	{"topk.select_us", "us"},
	{"topk.scan_us", "us"},
	{"topk.scan_allocs", "count"},
	{"topk.scan_alloc_bytes", "B"},
	{"topk.scan_gbps", "GB/s"},
	{"topk.scan_gflops", "GFLOP/s"},
	{"server.mips_us", "us"},
	{"shard.scatter_us", "us"},
	{"shard.wait_us", "us"},
	{"shard.merge_us", "us"},
	{"shard.topk_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.reconcile_err", "ratio"},
	{"trace.model_stage_samples", "count"},
}

// modelStages are the stages only a model (or its shard tier) records.
var modelStages = []string{"embedding-lookup", "encoder-forward", "mips-topk", "shard-scatter", "shard-wait", "shard-merge"}

const (
	// sessionPool is how many distinct generated sessions a run cycles.
	sessionPool = 4096
	// setupSpawns is how many times a run starts the server to time set-up;
	// the last one serves the load.
	setupSpawns = 21
	// sliceUnit is the nominal length of one weight unit of a load slice.
	// Phases are interleaved slice by slice so host noise lands on all of
	// them alike.
	sliceUnit = time.Second
	// warmup is the closed-loop time every server gets before measuring.
	warmup = 500 * time.Millisecond
	// reconcileTol bounds |stage sum − inference header| / header.
	reconcileTol = 0.10
	// replayShare: a traced run spends 1/replayShare of its time replaying.
	replayShare = 5
)

type config struct {
	w       Workload
	seed    int64
	seconds int
	trace   bool
	bin     string
	lanes   int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "traffic seed (sessions and arrival times)")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 for the traced per-layer run")
		bin     = flag.String("server", ".bench_build/bin/etude-server", "etude-server binary")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1, bin: *bin, lanes: runtime.NumCPU()}

	// The generator allocates little per request; a lazier collector keeps
	// its pauses out of the latency samples.
	debug.SetGCPercent(400)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// Children die with the benchmark even when it is interrupted mid-phase.
	go func() {
		<-ctx.Done()
		stopAll()
	}()
	defer stopAll()

	res, err := bench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench runs one workload and returns the result line.
func bench(ctx context.Context, cfg config) (*result, error) {
	in, err := makeInputs(cfg.w, cfg.seed, sessionPool)
	if err != nil {
		return nil, err
	}
	chk := newChecker(cfg.w)
	specs, runner := endToEnd, untracedRun
	if cfg.trace {
		specs, runner = perLayer, tracedRun
	}
	out, err := runner(ctx, cfg, in, chk)
	if err != nil {
		return nil, err
	}

	// The reference model is built exactly as the server builds it:
	// unsharded, weights from seed 1, eager Recommend.
	var ref model.Model
	if !cfg.w.Static() {
		if ref, err = model.New(cfg.w.Model, model.Config{CatalogSize: cfg.w.Catalog, Seed: 1}); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		budget := time.Duration(cfg.seconds) * time.Second / replayShare
		if err := replay(cfg.w, in, ref, budget, out.values); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var total outcomes
	for _, p := range out.phases {
		fmt.Println(p.report(cfg.lanes))
		total.add(p.out)
		if p.generatorLate() {
			fmt.Printf("run: INVALID, the generator itself was late in phase %s\n", p.name)
		}
	}
	res.Attempted, res.Failed = total.Sent, total.Failed()
	if res.Attempted == 0 {
		return nil, errors.New("no request was sent")
	}
	if total.Sent != out.sent {
		fmt.Printf("check failed: the lanes sent %d requests but %d outcomes were recorded\n", out.sent, total.Sent)
		res.Correct = false
	}

	for _, f := range chk.failures {
		fmt.Println("check failed:", f)
		res.Correct = false
	}
	if err := exactness(ref, in, chk); err != nil {
		fmt.Println("check failed:", err)
		res.Correct = false
	}
	if msg := traceChecks(cfg, out.values); msg != "" {
		fmt.Println("check failed:", msg)
		res.Correct = false
	}
	if !cfg.trace {
		for _, s := range reported {
			fmt.Printf("%-28s %14.6g %-8s (reported, not gated)\n", s.name, out.values[s.name], s.unit)
		}
	}
	for _, s := range specs {
		v := out.values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("%-28s %14.6g %s\n", s.name, v, s.unit)
	}
	return res, nil
}

// traceChecks applies the traced-run checks: stage sums reconcile with the
// inference header where the workload asks for it, and the static server
// records no model stage at all.
func traceChecks(cfg config, v map[string]float64) string {
	if !cfg.trace {
		return ""
	}
	switch {
	case cfg.w.Static() && v["trace.model_stage_samples"] != 0:
		return fmt.Sprintf("static server recorded %.0f model-stage samples", v["trace.model_stage_samples"])
	case cfg.w.Reconcile && !(v["trace.reconcile_err"] <= reconcileTol):
		return fmt.Sprintf("traced stage means are %.1f%% off the mean X-Inference-Duration (limit %.0f%%)",
			100*v["trace.reconcile_err"], 100*reconcileTol)
	}
	return ""
}

// plan splits budget into cycles in which each phase runs one slice of
// weight units; it returns the cycle count and the unit.
func plan(budget time.Duration, phases []*phase) (cycles int, unit time.Duration) {
	units := 0
	for _, p := range phases {
		units += p.weight
	}
	cycles = int(budget / (time.Duration(units) * sliceUnit))
	if cycles < 1 {
		cycles = 1
	}
	return cycles, budget / time.Duration(cycles*units)
}

// arrivals is the Poisson schedule of one open-loop slice, a pure function
// of the run seed, the phase and the cycle.
func arrivals(rate float64, seed int64, phase, cycle int, d time.Duration) ([]time.Duration, error) {
	return workload.Times(workload.ConstantRate(rate), seed*1_000_003+int64(phase)*1009+int64(cycle), d)
}

// runSlice runs one slice of p on lanes.
func runSlice(cfg config, p *phase, pi, cycle int, lanes []*lane, in *inputs, unit time.Duration) error {
	d := time.Duration(p.weight) * unit
	if !p.open {
		p.add(runClosed(lanes, in, d), d)
		return nil
	}
	dues, err := arrivals(p.rate, cfg.seed, pi, cycle, d)
	if err != nil {
		return err
	}
	if len(dues) == 0 {
		p.add(nil, d)
		return nil
	}
	p.add(runOpen(lanes, in, dues), d)
	return nil
}

// runOutput is what one kind of run measured.
type runOutput struct {
	phases []*phase
	values map[string]float64
	// sent is the lanes' own count of requests written while measuring.
	sent int64
}

// warm runs the warm-up on lanes and then zeroes their send counts.
func warm(lanes []*lane, in *inputs) {
	runClosed(lanes, in, warmup)
	for _, l := range lanes {
		l.sent = 0
	}
}

func sentBy(lanes ...[]*lane) int64 {
	var n int64
	for _, ls := range lanes {
		for _, l := range ls {
			n += l.sent
		}
	}
	return n
}

// loadPhases are the three phases every run measures. The low-rate phase
// gets twice the time so that its p99 has at least ten samples beyond it.
func loadPhases(w Workload) (lo, hi, sat *phase) {
	return &phase{name: "lo", open: true, rate: w.LoRPS, weight: 2},
		&phase{name: "hi", open: true, rate: w.HiRPS, weight: 1},
		&phase{name: "sat", weight: 1}
}

func untracedRun(ctx context.Context, cfg config, in *inputs, chk *checker) (runOutput, error) {
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupSpawns; i++ {
		p, err := spawnServer(ctx, cfg.bin, cfg.w, false)
		if err != nil {
			return runOutput{}, err
		}
		setups = append(setups, p.Setup.Seconds())
		if i < setupSpawns-1 {
			p.Stop()
		} else {
			srv = p
		}
	}
	defer srv.Stop()
	lanes := newLanes(cfg.lanes, srv.addr, chk)
	defer closeLanes(lanes)
	warm(lanes, in)

	lo, hi, sat := loadPhases(cfg.w)
	phases := []*phase{lo, hi, sat}
	cycles, unit := plan(time.Duration(cfg.seconds)*time.Second, phases)
	// Server CPU is charged over the saturated slices only, where every
	// request costs the same; idle-time housekeeping in the open-loop
	// phases would make the per-request figure depend on the request count.
	var satCPU time.Duration
	for c := 0; c < cycles; c++ {
		for pi, p := range phases {
			if ctx.Err() != nil {
				return runOutput{}, ctx.Err()
			}
			cpu0, err := srv.CPUTime()
			if err != nil {
				return runOutput{}, err
			}
			if err := runSlice(cfg, p, pi, c, lanes, in, unit); err != nil {
				return runOutput{}, err
			}
			cpu1, err := srv.CPUTime()
			if err != nil {
				return runOutput{}, err
			}
			if p == sat {
				satCPU += cpu1 - cpu0
			}
		}
	}
	rss, err := srv.PeakRSSMB()
	if err != nil {
		return runOutput{}, err
	}

	v := map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": rss,
		"sat_rps":     median(sat.sliceRPS),
		"sat.p50_ms":  quantile(sat.lat, 0.5),
		"sat.p99_ms":  quantile(sat.lat, 0.99),
		"lo.p50_ms":   quantile(lo.lat, 0.5),
		"lo.p99_ms":   quantile(lo.lat, 0.99),
		"hi.p50_ms":   quantile(hi.lat, 0.5),
		"hi.p99_ms":   quantile(hi.lat, 0.99),
	}
	// The highest offered rate meeting the limit, reported as the goodput
	// achieved there.
	for _, p := range []*phase{hi, lo} {
		if p.meetsSLO(cfg.lanes) {
			v["slo_rps"] = p.goodput()
			break
		}
	}
	var total outcomes
	for _, p := range phases {
		total.add(p.out)
	}
	v["ok_frac"] = float64(total.OK) / float64(total.Sent)
	v["fail_frac"] = float64(total.Failed()) / float64(total.Sent)
	v["cpu_us_per_req"] = float64(satCPU) / 1e3 / float64(sat.out.OK)
	fmt.Printf("setup: %d spawns, median %.4f s (%v)\n", len(setups), median(setups), setups)
	return runOutput{phases, v, sentBy(lanes)}, nil
}

func tracedRun(ctx context.Context, cfg config, in *inputs, chk *checker) (runOutput, error) {
	plain, err := spawnServer(ctx, cfg.bin, cfg.w, false)
	if err != nil {
		return runOutput{}, err
	}
	defer plain.Stop()
	traced, err := spawnServer(ctx, cfg.bin, cfg.w, true)
	if err != nil {
		return runOutput{}, err
	}
	defer traced.Stop()
	plainLanes := newLanes(cfg.lanes, plain.addr, chk)
	defer closeLanes(plainLanes)
	tracedLanes := newLanes(cfg.lanes, traced.addr, chk)
	defer closeLanes(tracedLanes)
	warm(plainLanes, in)
	warm(tracedLanes, in)

	lo, hi, sat := loadPhases(cfg.w)
	hiPlain := &phase{name: "hi-untraced", open: true, rate: cfg.w.HiRPS, weight: 1}
	phases := []*phase{lo, hi, sat, hiPlain}
	budget := time.Duration(cfg.seconds) * time.Second
	cycles, unit := plan(budget-budget/replayShare, phases)
	for c := 0; c < cycles; c++ {
		for pi, p := range phases {
			if ctx.Err() != nil {
				return runOutput{}, ctx.Err()
			}
			if p == hiPlain {
				if err := runSlice(cfg, p, 1, c, plainLanes, in, unit); err != nil {
					return runOutput{}, err
				}
				continue
			}
			before, err := traced.Scrape()
			if err != nil {
				return runOutput{}, err
			}
			if err := runSlice(cfg, p, pi, c, tracedLanes, in, unit); err != nil {
				return runOutput{}, err
			}
			after, err := traced.Scrape()
			if err != nil {
				return runOutput{}, err
			}
			p.stages.add(after.minus(before))
		}
	}
	plain.Stop()
	traced.Stop()

	v := map[string]float64{
		"bench.lo.lag_p99_ms":      quantile(lo.lag, 0.99),
		"bench.hi.lag_p99_ms":      quantile(hi.lag, 0.99),
		"bench.lo.pacer_p99_ms":    quantile(lo.pacer, 0.99),
		"bench.hi.pacer_p99_ms":    quantile(hi.pacer, 0.99),
		"server.inference_p50_ms":  median(lo.inference),
		"server.overhead_p50_ms":   median(lo.overhead),
		"server.admission_us":      lo.stages.MeanUS("admission"),
		"server.queue_wait_us":     hi.stages.MeanUS("queue-wait"),
		"server.sat.queue_wait_us": sat.stages.MeanUS("queue-wait"),
		"server.serialize_us":      lo.stages.MeanUS("serialize"),
		"model.embedding_us":       lo.stages.MeanUS("embedding-lookup"),
		"model.encoder_us":         lo.stages.MeanUS("encoder-forward"),
		"server.mips_us":           lo.stages.MeanUS("mips-topk"),
		"shard.scatter_us":         lo.stages.MeanUS("shard-scatter"),
		"shard.wait_us":            lo.stages.MeanUS("shard-wait"),
		"shard.merge_us":           lo.stages.MeanUS("shard-merge"),
		"trace.overhead_frac":      median(hi.lat)/median(hiPlain.lat) - 1,
	}
	var total outcomes
	var all stageTotals
	var inference []float64
	invalid := 0
	for _, p := range phases {
		total.add(p.out)
		if p.generatorLate() {
			invalid++
		}
		if p != hiPlain {
			all.add(p.stages)
			inference = append(inference, p.inference...)
		}
	}
	v["bench.invalid_phases"] = float64(invalid)
	v["server.shed"] = float64(total.TooMany)
	// The inference header spans queue wait plus every model stage.
	stageSum, samples := all.MeanUS("queue-wait"), 0.0
	for _, s := range modelStages {
		stageSum += all.MeanUS(s)
		samples += all.Count[s]
	}
	v["trace.model_stage_samples"] = samples
	if hdr := mean(inference) * 1e3; hdr > 0 && !cfg.w.Static() {
		v["trace.reconcile_err"] = math.Abs(stageSum-hdr) / hdr
		fmt.Printf("reconcile: traced stage means sum to %.1f us, mean X-Inference-Duration %.1f us\n", stageSum, hdr)
	}
	return runOutput{phases, v, sentBy(plainLanes, tracedLanes)}, nil
}
