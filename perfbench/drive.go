package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/pcapio"
	"repro/internal/rules"
)

// drive replays a capture through engine.RunStream, closed loop: the
// engine pulls as fast as it classifies. One pass is a fixed number of
// packets, the capture repeated.
type drive struct {
	cl   engine.BatchClassifier
	ecfg engine.Config
	cp   *capture
}

// pass is one replay pass's measurements.
type pass struct {
	pkts       int64
	wall       time.Duration
	cpu        time.Duration
	lat        []float64 // sojourn samples, µs
	stats      engine.Stats
	failed     int64
	mismatches int64
}

func (p pass) mpps() float64 { return float64(p.pkts) / p.wall.Seconds() / 1e6 }

// stampSource records when each pull returned, so a packet's sojourn
// (pull to ordered emit) can be measured, and traces the pulls when a
// tracer is set. Sources fill whole batches, so pull k carries sequence
// numbers [k·batch, (k+1)·batch).
type stampSource struct {
	inner  *pcapio.PcapSource
	base   time.Time
	pulls  []atomic.Int64
	calls  int
	t      *tracer
	parent *atomic.Int64
}

func (s *stampSource) Next(hs []rules.Header) (int, bool) {
	id, start := s.t.begin()
	n, ok := s.inner.Next(hs)
	s.t.end(id, s.parent.Load(), layerSource, start, n)
	if s.calls < len(s.pulls) {
		s.pulls[s.calls].Store(int64(time.Since(s.base)))
	}
	s.calls++
	return n, ok
}

// run replays loops copies of the capture. With a tracer, the pass is a
// span and the source and classifier calls are its children; m, when
// set, is attached as the engine's metrics block.
func (d *drive) run(ctx context.Context, loops int, t *tracer, m *engine.Metrics) (pass, error) {
	var parent atomic.Int64
	id, spanStart := t.begin()
	parent.Store(id)
	ps, err := pcapio.NewPcapSource(newLoopReader(d.cp.image, loops))
	if err != nil {
		return pass{}, err
	}
	ecfg := d.ecfg
	ecfg.Metrics = m
	batch := ecfg.BatchSize
	if batch == 0 {
		batch = engine.DefaultBatchSize
	}
	n := len(d.cp.headers)
	total := loops * n
	src := &stampSource{inner: ps, pulls: make([]atomic.Int64, total/batch+1), t: t, parent: &parent}
	exp := d.cp.expected
	p := pass{lat: make([]float64, 0, total/batch+1)}
	cl := wrapClassifier(d.cl, t, &parent)

	cpu0 := cpuTime()
	start := time.Now()
	src.base = start
	st, err := engine.RunStream(ctx, cl, ecfg, src, func(r engine.Result) {
		if r.Err != nil {
			p.failed++
			return
		}
		if int32(r.Match) != exp[r.Seq%uint64(n)] {
			p.mismatches++
		}
		if r.Seq%uint64(batch) == 0 {
			k := r.Seq / uint64(batch)
			p.lat = append(p.lat, float64(int64(time.Since(start))-src.pulls[k].Load())/1e3)
		}
	})
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	t.end(id, 0, layerDrive, spanStart, total)
	if err != nil {
		return p, err
	}
	if err := ps.Err(); err != nil {
		return p, err
	}
	p.stats = st
	p.pkts = int64(st.Packets)
	p.failed += int64(ps.DecodeErrors)
	if got := int64(st.Packets+st.Errors()) + int64(ps.DecodeErrors); got != int64(total) {
		return p, fmt.Errorf("replay accounting: %d classified + %d errors + %d undecodable != %d offered",
			st.Packets, st.Errors(), ps.DecodeErrors, total)
	}
	return p, nil
}
