package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/rmi"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

// spec is how a workload sets up the program: which preset rule set
// and which classifier.
type spec struct {
	ruleset string
	algo    string // "expcuts", "rmi" or "ladder"
}

// servingClassifier is what every workload serves through.
type servingClassifier interface {
	engine.BatchClassifier
	MemoryBytes() int
}

// system is one set-up instance of the program.
type system struct {
	rs  *rules.RuleSet
	cl  servingClassifier
	idx *rmi.Index      // when algo is rmi
	mgr *update.Manager // when algo is ladder
}

// close waits for background compactions.
func (s *system) close() {
	if s.mgr != nil {
		s.mgr.Quiesce(30 * time.Second)
	}
}

// setUp generates the rule set and builds the classifier the way
// "pcclass serve -algo" does, with no build budget: everything until the
// first verdict can be served. Each call is a span under the tracer
// (nil: untraced).
func setUp(sp spec, t *tracer) (*system, error) {
	id, start := t.begin()
	defer func() { t.end(id, 0, layerSetup, start, 0) }()

	gid, gstart := t.begin()
	rs, err := rulegen.Standard(sp.ruleset)
	t.end(gid, id, layerRulegen, gstart, 0)
	if err != nil {
		return nil, err
	}

	s := &system{rs: rs}
	bid, bstart := t.begin()
	ctx := context.Background()
	switch sp.algo {
	case "expcuts":
		s.cl, err = expcuts.NewCtx(ctx, rs, expcuts.Config{}, nil)
	case "rmi":
		s.idx, err = rmi.NewCtx(ctx, rs, rmi.Config{}, nil)
		s.cl = s.idx
	case "ladder":
		s.mgr, err = update.NewManagerLadder(rs, update.DefaultLadder(nil), update.Config{})
		s.cl = s.mgr
	default:
		err = fmt.Errorf("unknown algorithm %q", sp.algo)
	}
	t.end(bid, id, layerBuild, bstart, 0)
	if err != nil {
		return nil, fmt.Errorf("building %s on %s: %w", sp.algo, sp.ruleset, err)
	}
	return s, nil
}

// setUpRepeated sets up reps times and returns the last instance and
// the median set-up time. The heap is collected before each repetition
// so one build's garbage is not charged to the next.
func setUpRepeated(sp spec, reps int) (*system, float64, error) {
	var times []float64
	var s *system
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		s, err = setUp(sp, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, median(times), nil
}
