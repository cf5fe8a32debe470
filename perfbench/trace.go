package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/rules"
)

// layer names one boundary the traced run puts spans around. Every span
// is a call into a package's public functions, timed from the
// benchmark's side of the call.
type layer int

const (
	layerSetup layer = iota
	layerRulegen
	layerBuild
	layerPcapRead
	layerWireDecode
	layerDrive
	layerSource
	layerClassify
	layerEdit
	layerClient
	numLayers
)

var layerNames = [numLayers]string{
	layerSetup:      "bench.setup",
	layerRulegen:    "rulegen.Standard",
	layerBuild:      "classifier.build",
	layerPcapRead:   "pcapio.Reader.Next",
	layerWireDecode: "wire.ParseFrame",
	layerDrive:      "drive",
	layerSource:     "pcapio.PcapSource.Next",
	layerClassify:   "ClassifyBatch",
	layerEdit:       "update.Manager.ApplyDelta",
	layerClient:     "bench.udp_client",
}

// span is one timed call: when it started and ended (ns since the
// tracer's base), the span that caused it, and how many packets it
// carried.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
	layer  layer
}

// maxKeptSpans bounds the spans held for the dump; totals keep counting
// past it.
const maxKeptSpans = 1 << 16

// tracer keeps spans in memory and per-layer totals. A nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	kept    []span
	dropped int64
	calls   [numLayers]int64
	items   [numLayers]int64
	busy    [numLayers]int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// end closes span id, started at start, under parent.
func (t *tracer) end(id, parent int64, l layer, start int64, items int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.calls[l]++
	t.items[l] += int64(items)
	t.busy[l] += end - start
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{ID: id, Parent: parent, Layer: layerNames[l], Start: start, End: end, Items: items})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// totals is a snapshot of one layer's counters.
type totals struct {
	calls, items int64
	busy         time.Duration
}

func (a totals) sub(b totals) totals {
	return totals{calls: a.calls - b.calls, items: a.items - b.items, busy: a.busy - b.busy}
}

func (t *tracer) totals(l layer) totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return totals{calls: t.calls[l], items: t.items[l], busy: time.Duration(t.busy[l])}
}

// selfTimes returns each layer's self time over the kept spans: a span's
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.kept {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	self := map[string]int64{}
	for _, s := range t.kept {
		self[s.Layer] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns how much of [lo, hi] the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// dump writes the kept spans and per-layer self times as JSON.
func (t *tracer) dump(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Dropped int64            `json:"dropped_spans"`
		SelfNs  map[string]int64 `json:"self_ns"`
		Spans   []span           `json:"spans"`
	}{t.dropped, self, t.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuTime is the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// generationer is the optional generation contract the engine checks
// for flow-cache invalidation and per-batch generation bracketing.
type generationer interface{ Generation() uint64 }

// tracedClassifier times ClassifyBatch calls. It forwards exactly the
// optional interfaces its inner classifier has (see wrapClassifier), so
// the engine takes the same paths with and without tracing.
type tracedClassifier struct {
	inner  engine.BatchClassifier
	t      *tracer
	parent *atomic.Int64
}

func (c *tracedClassifier) Classify(h rules.Header) int { return c.inner.Classify(h) }

func (c *tracedClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	id, start := c.t.begin()
	c.inner.ClassifyBatch(hs, out)
	c.t.end(id, c.parent.Load(), layerClassify, start, len(hs))
}

type tracedDescriber struct {
	*tracedClassifier
	d engine.Describer
}

func (c tracedDescriber) DescribeAlgorithm() (string, int) { return c.d.DescribeAlgorithm() }

type tracedGenerations struct {
	*tracedClassifier
	g generationer
}

func (c tracedGenerations) Generation() uint64 { return c.g.Generation() }

type tracedBoth struct {
	tracedDescriber
	g generationer
}

func (c tracedBoth) Generation() uint64 { return c.g.Generation() }

// wrapClassifier returns cl with its ClassifyBatch calls traced under
// the span id parent holds. With a nil tracer it returns cl unchanged.
func wrapClassifier(cl engine.BatchClassifier, t *tracer, parent *atomic.Int64) engine.BatchClassifier {
	if t == nil {
		return cl
	}
	tc := &tracedClassifier{inner: cl, t: t, parent: parent}
	d, describes := cl.(engine.Describer)
	g, generations := cl.(generationer)
	switch {
	case describes && generations:
		return tracedBoth{tracedDescriber{tc, d}, g}
	case describes:
		return tracedDescriber{tc, d}
	case generations:
		return tracedGenerations{tc, g}
	}
	return tc
}
