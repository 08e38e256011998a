// Command perfbench is the repository's benchmark. It drives the shipped
// DenseVLC entry points — sim.Run and a sharded mac.Controller — through
// closed-loop epoch workloads and prints the end-to-end metrics of an
// untraced pass, or, with --trace 1, the per-layer breakdown of a separate
// traced pass. Every run checks the program's
// outputs (budget, free slots, determinism, equivalence with a cold solve)
// and fails when a check fails. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload room-sync --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// opts are one run's settings.
type opts struct {
	ctx      context.Context
	seed     int64
	dur      time.Duration
	trace    bool
	traceDir string
	workload string
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(o opts) (*result, error){
	"room-sync":  func(o opts) (*result, error) { return runRoom(o, false) },
	"room-wave":  func(o opts) (*result, error) { return runRoom(o, true) },
	"floor-ctrl": runFloor,
}

// maxProcs is the GOMAXPROCS ceiling: the runs are sized for, and compared
// on, at most two cores.
const maxProcs = 2

func main() {
	o := opts{ctx: context.Background(), traceDir: filepath.Join(".bench_build", "traces")}
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: room-sync, room-wave or floor-ctrl")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, seconds, trace)
		os.Exit(2)
	}
	o.dur = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		o.workload, o.seed, seconds, trace, procs, runtime.NumCPU(), runtime.Version())

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.gateErrs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d correctness check(s) failed:\n  %s\n",
			o.workload, len(res.gateErrs), strings.Join(res.gateErrs, "\n  "))
		os.Exit(1)
	}
}

// print writes one human-readable line per metric, then the JSON summary
// as the last line.
func (r *result) print(f *os.File, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.gateErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}

	var b strings.Builder
	for _, note := range r.notes {
		fmt.Fprintf(&b, "# %s\n", note)
	}
	fmt.Fprintf(&b, "# %-26s %14.6f %s\n", "fail_ratio", r.failRatio(), "ratio")
	for _, m := range tailMetrics {
		fmt.Fprintf(&b, "# %-26s %14.6f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	table, vals := e2eMetrics, r.e2e
	if traced {
		table, vals = layerMetrics, r.layers
	}
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(&b, "%-28s %14.6f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = f.WriteString(b.String())
	return err
}
