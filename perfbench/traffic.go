package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/linear"
	"repro/internal/pcapio"
	"repro/internal/pktgen"
	"repro/internal/rules"
	"repro/internal/wire"
)

// capture is one workload's traffic: an in-memory libpcap image of
// 64-byte frames, the headers they encode, and the verdict the linear
// oracle gives each one. Everything is a function of the rule set and
// the seed; the oracle runs here, outside every timed window.
type capture struct {
	image    []byte
	frames   [][]byte
	headers  []rules.Header
	expected []int32
}

// pcapHeaderLen is the libpcap global header; records follow it.
const pcapHeaderLen = 24

// newCapture writes headers as a pcap image with deterministic
// timestamps and computes the oracle verdicts of what the frames carry.
func newCapture(rs *rules.RuleSet, headers []rules.Header) (*capture, error) {
	headers = onWire(headers)
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	frames := wire.BuildTrace(headers)
	for i, f := range frames {
		if err := w.WritePacket(uint64(i)*1000, f); err != nil {
			return nil, err
		}
	}
	return &capture{
		image:    buf.Bytes(),
		frames:   frames,
		headers:  headers,
		expected: oracleVerdicts(rs, headers),
	}, nil
}

// onWire returns the headers as a frame carries them: only TCP and UDP
// have a transport header, so every other protocol's ports read as zero,
// the 5-tuple convention the wire decoder follows.
func onWire(hs []rules.Header) []rules.Header {
	out := make([]rules.Header, len(hs))
	for i, h := range hs {
		if h.Proto != rules.ProtoTCP && h.Proto != rules.ProtoUDP {
			h.SrcPort, h.DstPort = 0, 0
		}
		out[i] = h
	}
	return out
}

// ruleDirected is pktgen's rule-directed traffic: count headers, the
// given fraction sampled from rule boxes.
func ruleDirected(rs *rules.RuleSet, seed int64, count int) ([]rules.Header, error) {
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: count, Seed: seed, MatchFraction: pktgen.DefaultMatchFraction})
	if err != nil {
		return nil, fmt.Errorf("generating traffic: %w", err)
	}
	return tr.Headers, nil
}

// zipfFlows draws count packets from a pool of flows with Zipf-skewed
// popularity (weight of the k-th flow ∝ (64+k)^-1.1), so popular flows
// repeat often and most flows rarely. The offset keeps any single flow
// below half a percent of the traffic, so how a seed's heaviest flows
// happen to hash onto shards does not set the workload's throughput.
func zipfFlows(pool []rules.Header, seed int64, count int) []rules.Header {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed2f))
	z := rand.NewZipf(rng, 1.1, 64, uint64(len(pool)-1))
	out := make([]rules.Header, count)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// oracleVerdicts classifies every header with linear search, split over
// the available cores.
func oracleVerdicts(rs *rules.RuleSet, headers []rules.Header) []int32 {
	out := make([]int32, len(headers))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oracle := linear.New(rs)
			for i := w; i < len(headers); i += workers {
				out[i] = int32(oracle.Classify(headers[i]))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// loopReader yields a pcap image's global header once and then its
// records passes times over: a capture file of passes×records packets
// without holding it in memory.
type loopReader struct {
	image  []byte
	passes int
	off    int
}

func newLoopReader(image []byte, passes int) *loopReader {
	return &loopReader{image: image, passes: passes}
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if l.off == len(l.image) {
			l.passes--
			if l.passes <= 0 {
				break
			}
			l.off = pcapHeaderLen
		}
		m := copy(p[n:], l.image[l.off:])
		l.off += m
		n += m
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// requestArena builds one UDP request datagram per frame, token = index.
// The sender rewrites the token in place to the send sequence number.
func requestArena(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = pcapio.AppendRequest(nil, uint64(i), f)
	}
	return out
}

func setToken(req []byte, token uint64) {
	binary.BigEndian.PutUint64(req[:pcapio.ReqHeaderLen], token)
}

// edit is one scheduled single-op ApplyDelta call: the insert of a copy
// of rule Copy at the lowest priority, or the delete of that copy.
type edit struct {
	insert bool
	copyOf int
}

// editSchedule is the churn workload's edit stream: insert/delete pairs
// of shadowed copies of seeded random rules. A copy placed after every
// rule never wins a lookup, so verdicts stay equal to the static oracle.
func editSchedule(ruleCount int, seed int64, count int) []edit {
	rng := rand.New(rand.NewSource(seed ^ 0xed175))
	out := make([]edit, count)
	for i := 0; i < count; i += 2 {
		r := rng.Intn(ruleCount)
		out[i] = edit{insert: true, copyOf: r}
		if i+1 < count {
			out[i+1] = edit{insert: false, copyOf: r}
		}
	}
	return out
}
