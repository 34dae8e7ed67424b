package main

import (
	"fmt"
	"runtime"
	"strconv"

	"etude/internal/model"
)

// Workload is one traffic mix against one server configuration. Rates are
// constants: they are never calibrated per run, so two commits measured on
// the same host see the same offered load.
type Workload struct {
	Name string
	// Model is empty for the static (empty-response) server.
	Model   string
	Catalog int
	JIT     bool
	Shards  int
	// LoRPS and HiRPS are the open-loop Poisson arrival rates.
	LoRPS, HiRPS float64
	// Reconcile makes the traced run check that the stage means add up to
	// the mean X-Inference-Duration.
	Reconcile bool
}

var workloads = []Workload{
	// Paper Fig 2: the request path alone (net/http, httpapi, admission).
	{Name: "infra-static", Catalog: 10_000, LoRPS: 1000, HiRPS: 4000},
	// Paper Table I, Groceries-small: attention encoder plus JIT scan.
	{Name: "groceries-small", Model: "sasrec", Catalog: 10_000, JIT: true, LoRPS: 100, HiRPS: 1500},
	// Paper Table I, Groceries-large: the eager MIPS scan dominates.
	{Name: "groceries-large", Model: "gru4rec", Catalog: 100_000, LoRPS: 250, HiRPS: 400, Reconcile: true},
	// Groceries-large with the scan split across two shard goroutines.
	{Name: "groceries-large-sharded", Model: "gru4rec", Catalog: 100_000, Shards: 2, LoRPS: 250, HiRPS: 400},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Static reports whether the workload runs the empty-response server.
func (w Workload) Static() bool { return w.Model == "" }

// TopK is the number of items every 200 response must carry.
func (w Workload) TopK() int {
	if w.Static() {
		return 0
	}
	return model.DefaultTopK
}

// ServerArgs are the etude-server flags for this workload. Weights are
// always initialised from seed 1; the benchmark seed only shapes traffic.
func (w Workload) ServerArgs(port int, traced bool) []string {
	args := []string{
		"-port", strconv.Itoa(port),
		"-workers", strconv.Itoa(runtime.NumCPU()),
		"-drain-settle", "0s",
	}
	if w.Static() {
		args = append(args, "-static")
	} else {
		args = append(args, "-model", w.Model, "-catalog", strconv.Itoa(w.Catalog), "-seed", "1",
			"-jit="+strconv.FormatBool(w.JIT))
	}
	if w.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.Shards))
	}
	if traced {
		args = append(args, "-trace")
	}
	return args
}
