package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pcapio"
)

// udpClient is the benchmark's UDP client: one connected socket, the
// calling goroutine as the only sender and one receiver goroutine. An
// open-loop request is timed from the moment it was due to be sent, so a
// sender that falls behind counts its own delay in the latency it
// reports; how far behind it ran is reported separately as lag.
type udpClient struct {
	conn     *net.UDPConn
	arena    [][]byte
	expected []int32 // nil: replies carry no verdict to check
	epoch    time.Time
	next     uint64 // next token; tokens are never reused within a run
	cur      atomic.Pointer[phase]
	done     chan struct{}
	t        *tracer
}

// phase is one stream of requests and its replies, indexed by
// token − base.
type phase struct {
	base    uint64
	due     []int64 // ns since epoch, written before the send
	lag     []int64 // send time − due, ns
	recv    []atomic.Int64
	verdict []atomic.Int32
	got     atomic.Int64
	replied chan struct{} // ping-pong only: signals each reply
}

// phaseResult summarizes one phase.
type phaseResult struct {
	sent, received, lost      int64
	shed, decodeErrors, wrong int64
	rttP50, rttP99            float64 // µs
	lagP99                    float64 // µs
	kernelDrops               int64
}

func newUDPClient(server *net.UDPAddr, arena [][]byte, expected []int32, t *tracer) (*udpClient, error) {
	conn, err := net.DialUDP("udp", nil, server)
	if err != nil {
		return nil, err
	}
	c := &udpClient{conn: conn, arena: arena, expected: expected, epoch: time.Now(), done: make(chan struct{}), t: t}
	go c.receive()
	return c, nil
}

// close stops the receiver and waits for it to exit.
func (c *udpClient) close() {
	c.conn.Close()
	<-c.done
}

func (c *udpClient) receive() {
	defer close(c.done)
	buf := make([]byte, 64)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ICMP port unreachable surfaced on a connected socket
		}
		now := int64(time.Since(c.epoch))
		token, verdict, err := pcapio.ParseReply(buf[:n])
		ph := c.cur.Load()
		if err != nil || ph == nil || token < ph.base || token >= ph.base+uint64(len(ph.due)) {
			continue // a reply to an earlier phase, after its drain window
		}
		i := token - ph.base
		if ph.recv[i].CompareAndSwap(0, now) {
			ph.verdict[i].Store(verdict)
			ph.got.Add(1)
			if ph.replied != nil {
				select {
				case ph.replied <- struct{}{}:
				default:
				}
			}
		}
	}
}

// run sends count requests open loop at rate per second and waits up
// to drain after the last one was due for the replies.
func (c *udpClient) run(rate float64, count int, drain time.Duration) (phaseResult, error) {
	return c.phase(rate, count, 0, drain)
}

// pingPong keeps one request in flight for dur, sending the next as
// soon as a reply arrives (or pingTimeout after a loss): the bare round
// trip, with no pacing delay in it.
func (c *udpClient) pingPong(dur, drain time.Duration) (phaseResult, error) {
	return c.phase(0, int(dur/time.Microsecond), dur, drain)
}

// pingTimeout is how long a ping-pong sender waits before counting its
// request lost and sending the next.
const pingTimeout = 50 * time.Millisecond

// phase sends up to count requests: open loop at rate, or ping-pong
// until dur has passed when rate is 0.
func (c *udpClient) phase(rate float64, count int, dur, drain time.Duration) (phaseResult, error) {
	ph := &phase{
		base: c.next, due: make([]int64, count), lag: make([]int64, count),
		recv: make([]atomic.Int64, count), verdict: make([]atomic.Int32, count),
	}
	if rate == 0 {
		ph.replied = make(chan struct{}, 1)
	}
	c.next += uint64(count)
	c.cur.Store(ph)
	drops0 := kernelDrops()
	id, spanStart := c.t.begin()

	start := int64(time.Since(c.epoch)) + int64(time.Millisecond)
	sent := 0
	for ; sent < count; sent++ {
		i := sent
		var due int64
		if rate > 0 {
			due = start + int64(float64(i)*float64(time.Second)/rate)
			if d := due - int64(time.Since(c.epoch)); d > 0 {
				time.Sleep(time.Duration(d))
			}
		} else {
			if i > 0 {
				select {
				case <-ph.replied:
				case <-time.After(pingTimeout):
				}
			}
			if due = int64(time.Since(c.epoch)); due-start > int64(dur) {
				break
			}
		}
		token := ph.base + uint64(i)
		req := c.arena[token%uint64(len(c.arena))]
		setToken(req, token)
		ph.due[i] = due
		ph.lag[i] = int64(time.Since(c.epoch)) - due
		if _, err := c.conn.Write(req); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) {
				return phaseResult{}, fmt.Errorf("udp send: %w", err)
			}
		}
	}
	deadline := time.Now().Add(drain)
	for ph.got.Load() < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	c.t.end(id, 0, layerClient, spanStart, sent)
	c.cur.Store(nil)

	r := phaseResult{sent: int64(sent), kernelDrops: kernelDrops() - drops0}
	rtts := make([]float64, 0, sent)
	lags := make([]float64, sent)
	for i := 0; i < sent; i++ {
		lags[i] = float64(ph.lag[i]) / 1e3
		at := ph.recv[i].Load()
		if at == 0 {
			r.lost++
			// A lost request misses every latency limit.
			rtts = append(rtts, micros(drain))
			continue
		}
		r.received++
		rtts = append(rtts, float64(at-ph.due[i])/1e3)
		v := ph.verdict[i].Load()
		switch {
		case c.expected == nil:
		case v == pcapio.VerdictShed:
			r.shed++
		case v == pcapio.VerdictDecodeError:
			r.decodeErrors++
		case v != c.expected[(ph.base+uint64(i))%uint64(len(c.expected))]:
			r.wrong++
		}
	}
	r.rttP50, r.rttP99 = quantile(rtts, 0.5), quantile(rtts, 0.99)
	r.lagP99 = quantile(lags, 0.99)
	return r, nil
}

// errors counts requests that did not get a classified reply.
func (r phaseResult) errors() int64 { return r.lost + r.shed + r.decodeErrors }

// kernelDrops returns the host's UDP InErrors counter from
// /proc/net/snmp (it includes RcvbufErrors, receive-buffer overflows),
// or 0 when the file cannot be read.
func kernelDrops() int64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var names []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if names == nil {
			names = fields
			continue
		}
		for i, name := range names {
			if name == "InErrors" && i < len(fields) {
				v, _ := strconv.ParseInt(fields[i], 10, 64)
				return v
			}
		}
	}
	return 0
}

// echoServer answers every datagram with a reply carrying its token:
// the bare loopback round trip with no classification behind it.
type echoServer struct {
	conn *net.UDPConn
	done chan struct{}
}

func newEchoServer() (*echoServer, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	e := &echoServer{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		buf := make([]byte, pcapio.MaxRequestLen)
		var reply [pcapio.ReplyLen]byte
		for {
			n, addr, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			token, _, err := pcapio.ParseRequest(buf[:n])
			if err != nil {
				continue
			}
			_, _ = conn.WriteToUDPAddrPort(pcapio.PutReply(reply[:], token, pcapio.VerdictNoMatch), addr)
		}
	}()
	return e, nil
}

func (e *echoServer) addr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

func (e *echoServer) close() {
	e.conn.Close()
	<-e.done
}
