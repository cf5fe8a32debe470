package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/iofront"
)

const (
	// udpDrain is how long a phase waits for replies after its last send.
	udpDrain = 200 * time.Millisecond
	// udpRate and udpRequests make the paced round-trip phase.
	udpRate     = 1000.0
	udpRequests = 2000
	// rawProbe is how long the bare loopback ping-pong runs.
	rawProbe = 500 * time.Millisecond
)

// server is one iofront.Serve run on its own goroutine.
type server struct {
	cancel context.CancelFunc
	done   chan struct{}
	rep    iofront.ServeReport
	err    error
}

// serve runs iofront.Serve the way "pcclass serve -listen" does: the
// default flush interval, echo on.
func serve(ctx context.Context, conn *net.UDPConn, cl engine.Classifier, ecfg engine.Config) *server {
	ctx, cancel := context.WithCancel(ctx)
	s := &server{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.rep, s.err = iofront.Serve(ctx, conn, cl, iofront.ServerConfig{Engine: ecfg, Echo: true})
	}()
	return s
}

// stop cancels the server and waits for Serve to return.
func (s *server) stop() error {
	s.cancel()
	<-s.done
	if s.err == nil && s.rep.DecodeErrors != 0 {
		s.err = fmt.Errorf("server rejected %d requests as undecodable", s.rep.DecodeErrors)
	}
	return s.err
}

// udpProbeResult is the round-trip part of a traced run.
type udpProbeResult struct {
	paced, raw phaseResult
	batchMean  float64
}

func (u udpProbeResult) fill(rep *layerReport) {
	rep.rtt1kP50, rep.rtt1kP99 = u.paced.rttP50, u.paced.rttP99
	rep.rawRTTp50 = u.raw.rttP50
	rep.udpBatchMean = u.batchMean
	rep.genLagP99 = u.paced.lagP99
	rep.kernelDrops = u.paced.kernelDrops
}

// udpProbes serves cl behind iofront.Serve on a loopback socket, drives
// it open loop at udpRate from one client socket, and measures the bare
// loopback round trip with an echo server beside it.
func udpProbes(ctx context.Context, cl engine.BatchClassifier, ecfg engine.Config, cp *capture, t *tracer) (udpProbeResult, error) {
	var res udpProbeResult
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, err
	}
	defer conn.Close()
	var parent atomic.Int64
	cls0 := t.totals(layerClassify)
	srv := serve(ctx, conn, wrapClassifier(cl, t, &parent), ecfg)
	client, err := newUDPClient(conn.LocalAddr().(*net.UDPAddr), requestArena(cp.frames), cp.expected, t)
	if err != nil {
		srv.stop()
		return res, err
	}
	if _, err = client.run(udpRate, udpRequests/10, udpDrain); err == nil {
		res.paced, err = client.run(udpRate, udpRequests, udpDrain)
	}
	client.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return res, err
	}
	cls := t.totals(layerClassify).sub(cls0)
	res.batchMean = ratio(cls.items, cls.calls)

	echo, err := newEchoServer()
	if err != nil {
		return res, err
	}
	defer echo.close()
	raw, err := newUDPClient(echo.addr(), requestArena(cp.frames[:1]), nil, nil)
	if err != nil {
		return res, err
	}
	defer raw.close()
	res.raw, err = raw.pingPong(rawProbe, udpDrain)
	return res, err
}
