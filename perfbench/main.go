// Command perfbench is the repository's benchmark. It hosts a three-server
// Prio roster in its own process, wired as prio-server wires one (sealed
// submissions, self-signed TLS on 127.0.0.1, streamed verification rounds,
// the sharded pipeline, stream ingest with dynamic credits), drives it over
// real TCP+TLS ingest streams with submissions pre-built from a seed, checks
// every outcome against the seed's ground truth, and prints one JSON line:
//
//	bash perfbench/run.sh --workload sum8-open --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 the
// run records a span per call at each layer's wrapped entry point and the
// line carries the per-layer metrics, after a per-layer table. A failed
// correctness check exits 1 with no metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bits1024-closed, sum8-open or sum8-reject-closed")
	seed := fs.Int64("seed", 1, "seed for the submission values and the invalid positions")
	seconds := fs.Int("seconds", 10, "measured seconds, after a one-second warm-up")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	stamp, _ := json.Marshal(envStamp(w, *seed, *trace)) // strings and numbers always marshal
	fmt.Fprintf(out, "# env %s\n", stamp)

	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res := result{Metrics: map[string]metric{}}
	if rep != nil {
		res.Attempted, res.Failed = rep.ledger.submitted, rep.ledger.submitted-rep.ledger.accepted-rep.ledger.rejected
	}
	if err == nil {
		err = rep.finite()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		line, _ := json.Marshal(res) // no metrics, so nothing that cannot marshal
		fmt.Fprintf(out, "%s\n", line)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	res.Correct = true
	for _, m := range rep.metrics {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// envStamp records what the numbers were measured on.
func envStamp(w workload, seed int64, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"trace":      trace,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

// finite rejects a report holding a value JSON cannot carry, which only a
// failed or missing ack can produce.
func (r *report) finite() error {
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return errors.New("metric " + m.name + " is not finite")
		}
	}
	return nil
}
