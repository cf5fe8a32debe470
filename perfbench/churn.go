package main

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/update"
)

// churnCR02 serves CR02 (920 rules) through an update.Manager over the
// default degradation ladder with the default update.Config, so
// auto-compaction runs at its default threshold.
var churnCR02 = spec{ruleset: "CR02", algo: "ladder"}

const (
	// churnFlows distinct flows make the pool; churnCaptureLen packets
	// drawn from it with Zipf popularity make the capture, replayed
	// churnLoops times per pass.
	churnFlows      = 1 << 14
	churnCaptureLen = 1 << 16
	churnLoops      = 16
	// churnCacheFlows is each shard's flow-cache capacity.
	churnCacheFlows = 4096
	// editRate is the paced edit stream, single-op ApplyDelta calls per
	// second. At the default compaction threshold of 256 ops a
	// compaction starts every 6.4 s and holds a core for about a second,
	// so a 45 s run sees about seven, and the median pass is one served
	// beside the delta rather than beside a rebuild.
	editRate = 40.0
)

func churnConfig() engine.Config {
	return engine.Config{PreserveOrder: true, FlowCacheFlows: churnCacheFlows}
}

func churnCapture(sys *system, seed int64) (*capture, error) {
	pool, err := ruleDirected(sys.rs, seed, churnFlows)
	if err != nil {
		return nil, err
	}
	return newCapture(sys.rs, zipfFlows(pool, seed, churnCaptureLen))
}

// editor applies the edit schedule open loop at editRate: each edit is
// due at a fixed time, and its latency runs from that time to the
// return of ApplyDelta, so a late editor reports its own delay.
type editor struct {
	m     *update.Manager
	sys   *system
	sched []edit
	t     *tracer

	stop, done chan struct{}
	lat, lag   []float64 // µs
	failed     int64

	gen0, compactions0, validations0 uint64
	deltaOpsMax                      int
}

// editCycle is the edit schedule's length; the editor repeats it.
const editCycle = 1024

func startEditor(sys *system, seed int64, t *tracer) *editor {
	h := sys.mgr.Health()
	e := &editor{m: sys.mgr, sys: sys, sched: editSchedule(sys.rs.Len(), seed, editCycle), t: t,
		stop: make(chan struct{}), done: make(chan struct{}),
		gen0: sys.mgr.Generation(), compactions0: h.Compactions, validations0: h.FailedValidations}
	go e.run()
	return e
}

func (e *editor) run() {
	defer close(e.done)
	base := e.sys.rs.Len()
	period := time.Duration(float64(time.Second) / editRate)
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-e.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-e.stop:
				return
			default:
			}
		}
		e.lag = append(e.lag, micros(time.Since(due)))
		// editCycle is even, so wrapping keeps every insert paired with
		// the delete after it.
		ed := e.sched[i%len(e.sched)]
		op := update.DeleteAt(base)
		if ed.insert {
			op = update.InsertAt(base, e.sys.rs.Rules[ed.copyOf])
		}
		id, start := e.t.begin()
		err := e.m.ApplyDelta([]update.Op{op})
		e.t.end(id, 0, layerEdit, start, 1)
		e.lat = append(e.lat, micros(time.Since(due)))
		if err != nil {
			e.failed++
		}
		e.deltaOpsMax = max(e.deltaOpsMax, e.m.Health().DeltaOps)
	}
}

// halt stops the editor and waits for it to exit.
func (e *editor) halt() {
	close(e.stop)
	<-e.done
}

// fill reports the sampled update-manager state into a traced run.
func (e *editor) fill(rep *layerReport) {
	h := e.m.Health()
	rep.generations = int64(e.m.Generation() - e.gen0)
	rep.compactions = int64(h.Compactions - e.compactions0)
	rep.validationsFailed = int64(h.FailedValidations - e.validations0)
	rep.deltaOpsMax = int64(e.deltaOpsMax)
}

func runChurn(ctx context.Context, rc runConfig) (*outcome, error) {
	if rc.trace {
		return tracedReplay(ctx, rc, churnCR02, churnCapture, churnLoops, churnConfig(),
			func(sys *system, t *tracer) func(*layerReport) {
				e := startEditor(sys, rc.seed, t)
				return func(rep *layerReport) {
					e.halt()
					e.fill(rep)
				}
			})
	}
	sys, setupS, err := setUpRepeated(churnCR02, setupReps)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	cp, err := churnCapture(sys, rc.seed)
	if err != nil {
		return nil, err
	}
	d := &drive{cl: sys.cl, ecfg: churnConfig(), cp: cp}
	e := startEditor(sys, rc.seed, nil)
	passes, err := measurePasses(ctx, d, churnLoops, rc.seconds)
	e.halt()
	if err != nil {
		return nil, err
	}
	out := passOutcome(passes)
	out.attempted += int64(len(e.lat))
	out.failed += e.failed
	// Edit latency is recorded, not reported as a metric: with both
	// cores busy serving, it is mostly the wait for the Go scheduler to
	// run the editor, which no bound of 25% can hold (see README.md).
	h := sys.mgr.Health()
	out.metrics.set("setup_s", setupS, "s")
	out.metrics.set("memory_bytes", float64(sys.cl.MemoryBytes()), "B")
	out.notes["edits"] = len(e.lat)
	out.notes["edit_p50_us"] = quantile(e.lat, 0.5)
	out.notes["edit_p99_us"] = quantile(e.lat, 0.99)
	out.notes["edit_lag_p99_us"] = quantile(e.lag, 0.99)
	out.notes["compactions"] = h.Compactions
	out.notes["generation"] = sys.mgr.Generation()
	out.notes["error_ratio"] = ratio(out.failed, out.attempted)
	return out, nil
}
