// Command perfbench is the repository's benchmark. It sets up one
// workload from a seed, drives it from this process, checks every
// verdict against the linear-search oracle, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is the result object;
// the line before it records the host and the run's parameters.
//
//	bash perfbench/run.sh --workload replay-acl10k --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads and metric
// definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named results.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// outcome is what a workload run returns: operations attempted and
// failed (shed, canceled, panicked, undecodable, lost or unanswered),
// oracle mismatches, the metrics, and free-form notes for the record.
type outcome struct {
	attempted, failed, mismatches int64
	metrics                       metrics
	notes                         map[string]any
}

// runConfig is the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workloads maps each name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"replay-cr04":   func(ctx context.Context, rc runConfig) (*outcome, error) { return runReplay(ctx, rc, replayCR04) },
	"replay-acl10k": func(ctx context.Context, rc runConfig) (*outcome, error) { return runReplay(ctx, rc, replayACL10K) },
	"churn-cr02":    runChurn,
}

func main() {
	var rc runConfig
	var seconds, trace int
	flag.StringVar(&rc.workload, "workload", "", "workload name")
	flag.Int64Var(&rc.seed, "seed", 1, "traffic seed")
	flag.IntVar(&seconds, "seconds", 45, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	rc.seconds = time.Duration(seconds) * time.Second
	rc.trace = trace == 1
	run, ok := workloads[rc.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	steal0 := stealSeconds()
	out, err := run(context.Background(), rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := runRecord(rc)
	rec["notes"] = out.notes
	rec["host_steal_s"] = stealSeconds() - steal0
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.mismatches == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
	if out.mismatches != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d verdicts differ from the linear oracle\n", out.mismatches)
		os.Exit(1)
	}
}

// spanPath is where a traced run writes its spans, inside the build
// directory of the checkout it runs from.
func spanPath(rc runConfig) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
}
