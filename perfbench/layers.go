package main

import (
	"bytes"
	"io"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/wire"
)

// layerReport gathers what a traced run measured; metrics turns it into
// the per-layer metric set, which is the same set on every workload.
// Counts of a layer a workload does not exercise read 0.
type layerReport struct {
	rulegenS, classifierS float64
	sys                   *system

	readNs, decodeNs float64

	// The traced replay passes.
	pkts             int64
	cpu              time.Duration
	source, classify totals
	shardBusy        []time.Duration
	em               *engine.Metrics
	rt               runtimeDelta

	// Sampled update-manager state (churn).
	generations, compactions, deltaOpsMax, validationsFailed int64

	rawRTTp50, genLagP99, rtt1kP50, rtt1kP99, udpBatchMean float64
	kernelDrops                                            int64

	overhead float64
}

func (r *layerReport) metrics() metrics {
	m := metrics{}
	m.set("build.rulegen_s", r.rulegenS, "s")
	m.set("build.classifier_s", r.classifierS, "s")
	var trips, level float64
	if r.sys.mgr != nil {
		h := r.sys.mgr.Health()
		trips, level = float64(h.BudgetTrips), float64(h.DegradationLevel)
	} else if d, ok := r.sys.cl.(engine.Describer); ok {
		_, l := d.DescribeAlgorithm()
		level = float64(l)
	}
	m.set("build.budget_trips", trips, "count")
	m.set("build.degradation_level", level, "count")
	var isets, rem, maxErr, subs float64
	if r.sys.idx != nil {
		st := r.sys.idx.Stats()
		isets, rem, maxErr, subs = float64(st.NumISets), float64(st.RemainderRules), float64(st.MaxErr), float64(st.Submodels)
	}
	m.set("rmi.isets", isets, "count")
	m.set("rmi.remainder_rules", rem, "count")
	m.set("rmi.max_err", maxErr, "count")
	m.set("rmi.submodels", subs, "count")

	m.set("pcapio.read_ns_per_pkt", r.readNs, "ns")
	m.set("wire.decode_ns_per_pkt", r.decodeNs, "ns")
	m.set("source.ns_per_pkt", perItem(r.source.busy, r.source.items), "ns")
	m.set("source.fill_mean", ratio(r.source.items, r.source.calls), "pkt")
	m.set("classify.ns_per_pkt", perItem(r.classify.busy, r.classify.items), "ns")
	m.set("classify.batch_mean", ratio(r.classify.items, r.classify.calls), "pkt")

	attributed := r.source.busy + r.classify.busy
	m.set("engine.self_ns_per_pkt", perItem(r.cpu-attributed, r.pkts), "ns")
	var busyMax, busySum time.Duration
	for _, b := range r.shardBusy {
		busyMax = max(busyMax, b)
		busySum += b
	}
	m.set("engine.shard_busy_max_ns_per_pkt", perItem(busyMax, r.pkts), "ns")
	imbalance := 0.0
	if busySum > 0 {
		imbalance = float64(busyMax) * float64(len(r.shardBusy)) / float64(busySum)
	}
	m.set("engine.shard_imbalance", imbalance, "ratio")

	em := collectEngine(r.em)
	m.set("engine.batch_fill_mean", em.batchFill.Mean(), "pkt")
	m.set("engine.queue_depth_p50", histQuantile(em.queueDepth, 0.5), "batch")
	m.set("engine.reorder_held_p99", histQuantile(em.reorderHeld, 0.99), "pkt")
	m.set("flowcache.hit_ratio", ratio(em.hits, em.hits+em.misses), "fraction")
	m.set("engine.cache_bypass", float64(em.bypass), "count")

	m.set("update.generations", float64(r.generations), "count")
	m.set("update.compactions", float64(r.compactions), "count")
	m.set("update.delta_ops_max", float64(r.deltaOpsMax), "count")
	m.set("update.validations_failed", float64(r.validationsFailed), "count")

	m.set("udp.raw_rtt_p50_us", r.rawRTTp50, "us")
	m.set("udp.rtt_p50_us.1kpps", r.rtt1kP50, "us")
	m.set("udp.rtt_p99_us.1kpps", r.rtt1kP99, "us")
	m.set("udp.classify_batch_mean", r.udpBatchMean, "pkt")
	m.set("udp.gen_lag_p99_us", r.genLagP99, "us")
	m.set("udp.kernel_drops", float64(r.kernelDrops), "count")

	m.set("runtime.allocs_per_pkt", ratio(int64(r.rt.allocs), r.pkts), "count")
	m.set("runtime.gc_cpu_fraction", r.rt.gcFraction(), "fraction")

	m.set("trace.overhead_ratio", r.overhead, "ratio")
	unattributed := 0.0
	if r.cpu > 0 {
		unattributed = float64(r.cpu-attributed) / float64(r.cpu)
	}
	m.set("trace.unattributed_cpu_ratio", unattributed, "fraction")
	return m
}

func perItem(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// engineSums folds the engine's per-shard instruments into totals.
type engineSums struct {
	batchFill, queueDepth, reorderHeld obs.HistSnapshot
	hits, misses, bypass               int64
}

func collectEngine(m *engine.Metrics) engineSums {
	var s engineSums
	if m == nil {
		return s
	}
	merge := func(dst *obs.HistSnapshot, src *obs.HistSnapshot) {
		for b, c := range src.Counts {
			dst.Counts[b] += c
		}
		dst.Count += src.Count
		dst.Sum += src.Sum
	}
	m.Collect(func(smp obs.Sample) {
		switch smp.Name {
		case "pc_engine_batch_fill":
			merge(&s.batchFill, smp.Hist)
		case "pc_engine_queue_depth":
			merge(&s.queueDepth, smp.Hist)
		case "pc_engine_reorder_held":
			merge(&s.reorderHeld, smp.Hist)
		case "pc_flowcache_hits_total":
			s.hits += int64(smp.Value)
		case "pc_flowcache_misses_total":
			s.misses += int64(smp.Value)
		case "pc_engine_cache_bypass_total":
			s.bypass += int64(smp.Value)
		}
	})
	return s
}

// runtimeDelta is the change in Go runtime counters across a window.
type runtimeDelta struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

func (d runtimeDelta) gcFraction() float64 {
	if d.totalCPU == 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

func (d runtimeDelta) add(o runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocs + o.allocs, d.gcCPU + o.gcCPU, d.totalCPU + o.totalCPU}
}

func readRuntime() runtimeDelta {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeDelta{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (d runtimeDelta) since(start runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocs - start.allocs, d.gcCPU - start.gcCPU, d.totalCPU - start.totalCPU}
}

// probeReps is how many times each stand-alone layer probe walks the
// capture; the median walk is reported.
const probeReps = 5

// probeRead times pcapio.Reader.Next over the capture, per record.
func probeRead(cp *capture, t *tracer) (float64, error) {
	var walks []float64
	for rep := 0; rep < probeReps; rep++ {
		r, err := pcapio.NewReader(bytes.NewReader(cp.image))
		if err != nil {
			return 0, err
		}
		var seg pcapio.Segment
		id, start := t.begin()
		t0 := time.Now()
		n := 0
		for {
			if seg.Count() == engine.DefaultBatchSize {
				seg.Reset()
			}
			if _, err := r.Next(&seg); err != nil {
				if err != io.EOF {
					return 0, err
				}
				break
			}
			n++
		}
		walks = append(walks, float64(time.Since(t0))/float64(n))
		t.end(id, 0, layerPcapRead, start, n)
	}
	return median(walks), nil
}

// decodeSink keeps the probe's decoded headers observable.
var decodeSink rules.Header

// probeDecode times wire.ParseFrame over the capture's frames, per frame.
func probeDecode(cp *capture, t *tracer) (float64, error) {
	var walks []float64
	for rep := 0; rep < probeReps; rep++ {
		id, start := t.begin()
		t0 := time.Now()
		for _, f := range cp.frames {
			h, err := wire.ParseFrame(f)
			if err != nil {
				return 0, err
			}
			decodeSink = h
		}
		walks = append(walks, float64(time.Since(t0))/float64(len(cp.frames)))
		t.end(id, 0, layerWireDecode, start, len(cp.frames))
	}
	return median(walks), nil
}
