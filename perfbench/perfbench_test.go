package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/pcapio"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// goldenPresets pins the rule sets the workloads serve. A change to the
// generator makes results of different commits incomparable, so it must
// show here and be made deliberately.
var goldenPresets = map[string]string{
	"CR02":     "403b9957bf3f101e20dfdc660b794ef122fd268614f26a7e5bc00534ce9047f0",
	"CR04":     "0c92a9c473d11abc8d4da50fb0a13f329fc728d512e954916b5ed7e192e05f9f",
	"ACL1_10K": "6bde9c0aac9d914c5ae0956158402ab9f17527fe39ffda297137ddd688f001d4",
}

func hashRules(rs *rules.RuleSet) string {
	h := sha256.New()
	for i := range rs.Rules {
		fmt.Fprintf(h, "%s\n", rs.Rules[i].String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPresetsFixed(t *testing.T) {
	for name, want := range goldenPresets {
		rs, err := rulegen.Standard(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRules(rs); got != want {
			t.Errorf("%s: rule set hash %s, golden %s", name, got, want)
		}
	}
}

// traffic is every input a seed determines, as bytes.
func traffic(t *testing.T, rs *rules.RuleSet, seed int64) (image, arena, zipf []byte, sched []edit) {
	t.Helper()
	hs, err := ruleDirected(rs, seed, 512)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := newCapture(rs, hs)
	if err != nil {
		t.Fatal(err)
	}
	zc, err := newCapture(rs, zipfFlows(hs, seed, 2048))
	if err != nil {
		t.Fatal(err)
	}
	return cp.image, bytes.Join(requestArena(cp.frames), nil), zc.image, editSchedule(rs.Len(), seed, 64)
}

func TestTrafficDeterministic(t *testing.T) {
	rs, err := rulegen.Standard("CR02")
	if err != nil {
		t.Fatal(err)
	}
	img1, arena1, zipf1, sched1 := traffic(t, rs, 7)
	img2, arena2, zipf2, sched2 := traffic(t, rs, 7)
	img3, arena3, zipf3, sched3 := traffic(t, rs, 8)
	for _, c := range []struct {
		name       string
		a, same, b []byte
	}{
		{"pcap image", img1, img2, img3},
		{"request arena", arena1, arena2, arena3},
		{"zipf capture", zipf1, zipf2, zipf3},
	} {
		if !bytes.Equal(c.a, c.same) {
			t.Errorf("%s differs between two runs of one seed", c.name)
		}
		if bytes.Equal(c.a, c.b) {
			t.Errorf("%s is the same for two seeds", c.name)
		}
	}
	if !reflect.DeepEqual(sched1, sched2) {
		t.Error("edit schedule differs between two runs of one seed")
	}
	if reflect.DeepEqual(sched1, sched3) {
		t.Error("edit schedule is the same for two seeds")
	}
}

func TestLoopReaderRepeatsRecords(t *testing.T) {
	rs, err := rulegen.Standard("CR02")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := ruleDirected(rs, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := newCapture(rs, hs)
	if err != nil {
		t.Fatal(err)
	}
	src, err := pcapio.NewPcapSource(newLoopReader(cp.image, 3))
	if err != nil {
		t.Fatal(err)
	}
	var got []rules.Header
	buf := make([]rules.Header, 64)
	for {
		n, ok := src.Next(buf)
		got = append(got, buf[:n]...)
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]rules.Header{}, cp.headers...), cp.headers...), cp.headers...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d headers, want the capture's %d three times over", len(got), len(cp.headers))
	}
}

// TestWrapperForwardsInterfaces checks that tracing hands the engine a
// classifier with exactly the optional interfaces of the one it wraps:
// the engine type-asserts Describer for Stats.Algorithm and Generation
// for flow-cache invalidation and per-batch generation bracketing.
func TestWrapperForwardsInterfaces(t *testing.T) {
	for _, sp := range []spec{{ruleset: "CR02", algo: "expcuts"}, {ruleset: "CR02", algo: "rmi"}, churnCR02} {
		sys, err := setUp(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		var parent atomic.Int64
		w := wrapClassifier(sys.cl, newTracer(), &parent)
		_, d1 := sys.cl.(engine.Describer)
		_, d2 := w.(engine.Describer)
		_, g1 := sys.cl.(generationer)
		_, g2 := w.(generationer)
		if d1 != d2 || g1 != g2 {
			t.Errorf("%s: wrapper has Describer %v Generation %v, inner has %v %v", sp.algo, d2, g2, d1, g1)
		}
		sys.close()
	}
}

// TestTracingKeepsVerdicts serves the churn workload's classifier (an
// update.Manager behind the engine flow cache) with and without the
// tracing wrappers: the verdict sequence and Stats.Algorithm must agree.
func TestTracingKeepsVerdicts(t *testing.T) {
	sys, err := setUp(churnCR02, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	pool, err := ruleDirected(sys.rs, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := newCapture(sys.rs, zipfFlows(pool, 3, 8192))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(t *tracer) ([]int, engine.Stats) {
		var parent atomic.Int64
		src, err := pcapio.NewPcapSource(bytes.NewReader(cp.image))
		if err != nil {
			panic(err)
		}
		var s engine.Source = src
		if t != nil {
			s = &stampSource{inner: src, pulls: make([]atomic.Int64, len(cp.headers)), t: t, parent: &parent}
		}
		out := make([]int, len(cp.headers))
		st, err := engine.RunStream(context.Background(), wrapClassifier(sys.cl, t, &parent), churnConfig(), s,
			func(r engine.Result) { out[r.Seq] = r.Match })
		if err != nil {
			panic(err)
		}
		return out, st
	}
	plain, pst := serve(nil)
	traced, tst := serve(newTracer())
	if !reflect.DeepEqual(plain, traced) {
		t.Error("traced and untraced runs gave different verdicts")
	}
	if pst.Algorithm != tst.Algorithm || pst.Algorithm == "" {
		t.Errorf("Stats.Algorithm %q untraced, %q traced", pst.Algorithm, tst.Algorithm)
	}
	for i, v := range plain {
		if int32(v) != cp.expected[i] {
			t.Fatalf("packet %d: verdict %d, oracle %d", i, v, cp.expected[i])
		}
	}

	// The benchmark's own drive, traced and not, under live edits.
	d := &drive{cl: sys.cl, ecfg: churnConfig(), cp: cp}
	e := startEditor(sys, 3, nil)
	defer e.halt()
	for _, tr := range []*tracer{nil, newTracer()} {
		p, err := d.run(context.Background(), 4, tr, engine.NewMetrics(engine.DefaultMetricsShards))
		if err != nil {
			t.Fatal(err)
		}
		if p.mismatches != 0 || p.failed != 0 {
			t.Errorf("traced=%v: %d mismatches, %d failed", tr != nil, p.mismatches, p.failed)
		}
		if p.stats.Algorithm != pst.Algorithm {
			t.Errorf("traced=%v: Stats.Algorithm %q, want %q", tr != nil, p.stats.Algorithm, pst.Algorithm)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 15}, {20, 30}}
	if got := covered(iv, 2, 25); got != 1+10+5 {
		t.Errorf("covered = %d, want 16", got)
	}
}
