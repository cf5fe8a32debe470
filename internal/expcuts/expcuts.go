// Package expcuts implements Explicit Cuttings (ExpCuts), the paper's core
// contribution: a decision-tree packet classifier optimized for multi-core
// network processors.
//
// ExpCuts departs from HiCuts in two ways (§4.2.1):
//
//  1. Fixed stride. Every internal node cuts its sub-space into exactly 2^w
//     equal cells, consuming the next w bits of the 104-bit concatenated
//     header key (srcIP ‖ dstIP ‖ srcPort ‖ dstPort ‖ proto). The tree
//     depth is therefore exactly ⌈104/w⌉ — an *explicit* worst-case bound
//     on per-packet memory accesses, the metric that matters at line rate.
//
//  2. No linear search. Cutting continues until every sub-space is fully
//     resolved: a node becomes a leaf when no rule intersects it, or when
//     the highest-priority intersecting rule covers the whole sub-space
//     (that rule then beats every other intersecting rule at every point
//     inside, so it is the match). This is binth = 1 in HiCuts terms.
//
// Both changes explode memory, which the hierarchical space aggregation of
// §4.2.2 wins back: child pointer arrays are compressed with a Hierarchical
// Aggregation Bit String (HABS, internal/bitstring) and sub-spaces with
// identical relative rule geometry share one child node.
package expcuts

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/bitstring"
	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/rules"
)

// Config parameterizes tree construction.
type Config struct {
	// StrideW is w: every internal node has 2^w children. It must divide
	// the width of every header field, i.e. be one of 1, 2, 4, 8.
	// The paper uses 8.
	StrideW uint
	// HabsV is v: the HABS has 2^v bits. Must satisfy v <= StrideW and
	// v <= bitstring.MaxV. The paper uses 4 (a 16-bit HABS).
	HabsV uint
	// Sharing selects how aggressively sub-spaces with identical relative
	// rule geometry share child nodes; see SharingMode.
	Sharing SharingMode
	// MaxNodes aborts construction beyond this many unique nodes
	// (default 4 Mi) instead of exhausting memory.
	MaxNodes int
	// Channels is the number of SRAM channels for serialization (1..4).
	Channels int
	// Headroom weights the level-to-channel allocation.
	Headroom memlayout.Headroom
	// BuildWorkers fans subtree construction out over a bounded worker
	// pool: the root's 2^w cells are statically partitioned into
	// contiguous chunks, one builder goroutine per chunk, all charging
	// the same build governor (the budget bounds the build's *total*
	// consumption). 0 or 1 builds sequentially — the default, and the
	// only mode whose node ordering (and therefore serialized image) is
	// bit-for-bit reproducible against earlier releases. Parallel builds
	// are deterministic for a fixed worker count and classify identically
	// to sequential builds; they may share fewer nodes (each worker
	// deduplicates within its own memo scope), trading memory for build
	// wall-clock.
	BuildWorkers int

	// noLevelMajor skips the BFS level-major node reorder that makes each
	// level's arena entries contiguous. Unexported: it exists only so the
	// serialized-image byte-identity regression test can build a tree in
	// the raw recursion order and compare images. The reorder never changes
	// the image (see reorderLevelMajor), so there is no reason for callers
	// to set it.
	noLevelMajor bool
}

// SharingMode selects the node-sharing policy, the subject of the sharing
// ablation.
type SharingMode int

const (
	// ShareGlobal (the default, and what ExpCuts does) deduplicates
	// sub-spaces with equal signatures anywhere in the tree.
	ShareGlobal SharingMode = iota
	// ShareSiblings deduplicates only among the 2^w children of one node
	// — the pointer aggregation HiCuts performs (Figure 2 of the paper).
	ShareSiblings
	// ShareNone builds the fully expanded tree. With fixed-stride cutting
	// a single wildcard dimension multiplies the expansion by 2^w per
	// level, so this is infeasible beyond toy rule sets; it exists to
	// demonstrate exactly that (the MaxNodes budget makes it fail
	// cleanly).
	ShareNone
)

// String names the sharing mode.
func (m SharingMode) String() string {
	switch m {
	case ShareGlobal:
		return "global"
	case ShareSiblings:
		return "siblings"
	case ShareNone:
		return "none"
	}
	return fmt.Sprintf("SharingMode(%d)", int(m))
}

// DefaultConfig matches the paper: w = 8 (256 cuts), 16-bit HABS, global
// sharing, four SRAM channels.
func DefaultConfig() Config {
	return Config{
		StrideW:  8,
		HabsV:    4,
		Sharing:  ShareGlobal,
		MaxNodes: 4 << 20,
		Channels: memlayout.NumChannels,
		Headroom: memlayout.UniformHeadroom,
	}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.StrideW == 0 {
		c.StrideW = d.StrideW
	}
	if c.HabsV == 0 && c.StrideW > 0 {
		c.HabsV = d.HabsV
		if c.HabsV > c.StrideW {
			c.HabsV = c.StrideW
		}
	}
	if c.Sharing < ShareGlobal || c.Sharing > ShareNone {
		return fmt.Errorf("expcuts: invalid sharing mode %d", c.Sharing)
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = d.MaxNodes
	}
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.Headroom == (memlayout.Headroom{}) {
		c.Headroom = d.Headroom
	}
	switch c.StrideW {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("expcuts: stride w=%d must divide every field width (1, 2, 4 or 8)", c.StrideW)
	}
	if c.HabsV > c.StrideW || c.HabsV > bitstring.MaxV {
		return fmt.Errorf("expcuts: HABS v=%d must satisfy v <= w=%d and v <= %d",
			c.HabsV, c.StrideW, bitstring.MaxV)
	}
	if c.Channels < 1 || c.Channels > memlayout.NumChannels {
		return fmt.Errorf("expcuts: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	if c.BuildWorkers < 0 {
		return fmt.Errorf("expcuts: build workers %d must be >= 0", c.BuildWorkers)
	}
	return nil
}

// ref is a child reference inside the in-memory tree:
//
//	>= 0  index into Tree.nodes
//	  -1  no-match leaf
//	<= -2 rule leaf, rule index = -(ref+2)
type ref = int32

const refNoMatch ref = -1

func refLeaf(ruleIdx int) ref { return ref(-(ruleIdx + 2)) }

func refRule(r ref) int { return int(-r - 2) }

// node is one internal tree node: 2^w child references. The node's level
// (bit position / w) is implied by where it sits in the level index.
type node struct {
	level int
	ptrs  []ref
}

// BuildStats reports the tree-shape numbers behind Figure 6 and §6.3.
type BuildStats struct {
	// Nodes is the number of unique internal nodes.
	Nodes int
	// NodesPerLevel counts unique internal nodes at each tree level.
	NodesPerLevel []int
	// Depth is the explicit tree depth ⌈104/w⌉.
	Depth int
	// AvgUniqueChildren is the mean number of distinct children per
	// internal node (the paper observes < 10 at 256 cuts, §4.2.2).
	AvgUniqueChildren float64
	// MemoryWordsAggregated is the SRAM footprint with HABS/CPA
	// compression; MemoryWordsFull is the footprint with full 2^w
	// pointer arrays (the "without aggregation" bar of Figure 6).
	MemoryWordsAggregated, MemoryWordsFull int
	// WorstCaseAccesses is the explicit per-lookup SRAM command bound:
	// two single-word accesses per level (HABS word, CPA pointer).
	WorstCaseAccesses int
}

// Tree is a built ExpCuts classifier.
type Tree struct {
	cfg   Config
	rs    *rules.RuleSet
	nodes []*node
	root  ref
	stats BuildStats
	ar    arena // flat SoA lookup structure; see arena.go

	// levelOff[l] is the first node id of level l after the level-major
	// reorder (levelOff[depth] == len(nodes)); nil when the reorder was
	// disabled. stageFill[l] counts packets entering level l on the
	// pipelined batch walk (the per-stage fill profile; see StageFill).
	levelOff  []int32
	stageFill []atomic.Uint64

	image     *memlayout.Image
	rootPtr   uint32
	nodeAddrs []uint32 // per node: pointer word (channel+offset encoded)

	// boxes[i] is rs.Rules[i].Box(), computed once per build by newTree and
	// read by every builder; construct drops it when the build ends.
	boxes []rules.Box
}

// builder carries the construction state of one build goroutine. Builders
// append into their own nodes slice (merged by ref-offset remapping when
// building in parallel) and share the governor and the MaxNodes counter,
// so budget accounting stays exact across the pool.
type builder struct {
	t      *Tree
	gov    *buildgov.Governor
	memo   map[string]ref // builder-scoped memo (ShareGlobal only)
	sig    []byte
	mode   SharingMode
	nodes  []*node
	count  *atomic.Int64 // total nodes across all builders, vs cfg.MaxNodes
	levels []cellBuckets // rule distribution scratch, one per tree level
}

// cellBuckets is the rule distribution of one node. same[c] reports that
// cell c holds exactly cell c-1's rules and every one of them spans both
// cells whole along the cut dimension, so the two cells' box-relative
// geometry, signature and sub-tree are identical. A same cell gets no
// bucket of its own; any other cell c holds rules[off[c]:off[c+1]], in
// priority order (see bucket). A builder keeps one cellBuckets per
// tree level and reuses it for every node at that level: a node's children
// are finished before its next sibling is expanded.
type cellBuckets struct {
	off   []int32 // 2^w+1 bucket offsets
	diff  []int32 // 2^w+2 difference counts of bucket sizes; fill cursors
	brk   []int32 // 2^w+2 difference counts of cells that differ from c-1
	next  []int32 // 2^w+1: the first cell >= c that is not same
	same  []bool
	rules []int32
}

// newTree returns an unbuilt tree carrying the per-build state that every
// builder reads. It is the one constructor for that state: NewCtx, the
// parallel build and the tests all start here.
func newTree(rs *rules.RuleSet, cfg Config) *Tree {
	boxes := make([]rules.Box, rs.Len())
	for i := range rs.Rules {
		boxes[i] = rs.Rules[i].Box()
	}
	return &Tree{cfg: cfg, rs: rs, boxes: boxes}
}

// newBuilder returns a builder over t that charges gov and counts nodes in
// count, which every builder of one build shares.
func (t *Tree) newBuilder(gov *buildgov.Governor, count *atomic.Int64) *builder {
	b := &builder{t: t, mode: t.cfg.Sharing, gov: gov, count: count,
		levels: make([]cellBuckets, t.Depth())}
	if b.mode == ShareGlobal {
		b.memo = make(map[string]ref)
	}
	return b
}

// construct builds the node graph, sequentially or over cfg.BuildWorkers
// builders, and sets t.nodes and t.root. The per-build state is dropped
// either way.
func (t *Tree) construct(gov *buildgov.Governor) error {
	defer func() { t.boxes = nil }()
	all := make([]int32, t.rs.Len())
	for i := range all {
		all[i] = int32(i)
	}
	var count atomic.Int64
	if t.cfg.BuildWorkers > 1 {
		root, err := t.buildParallel(gov, &count, all, t.cfg.BuildWorkers)
		t.root = root
		return err
	}
	b := t.newBuilder(gov, &count)
	root, err := b.build(0, rules.FullBox(), all, b.memo)
	t.root, t.nodes = root, b.nodes
	return err
}

// New builds an ExpCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: the build cooperatively checks ctx and
// charges nodes, memo entries and estimated heap bytes against budget
// (nil budget = ctx only) in every recursion step, so a runaway build on
// an adversarial rule set aborts in bounded time with a typed
// *buildgov.BudgetError instead of hanging or exhausting memory.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	t := newTree(rs, cfg)
	if err := t.construct(buildgov.Start(ctx, budget)); err != nil {
		return nil, err
	}
	if !cfg.noLevelMajor {
		t.reorderLevelMajor()
	}
	t.stageFill = make([]atomic.Uint64, t.Depth())
	t.collectStats()
	if err := t.buildArena(); err != nil {
		return nil, err
	}
	if err := t.serialize(); err != nil {
		return nil, err
	}
	return t, nil
}

// build constructs the sub-tree for the box starting at key bit position
// pos, holding ruleIdx (priority order, all intersecting box). memo is the
// sharing scope this node participates in: the global map (ShareGlobal), a
// map shared with its siblings only (ShareSiblings), or nil (ShareNone).
func (b *builder) build(pos uint, box rules.Box, ruleIdx []int32, memo map[string]ref) (ref, error) {
	t := b.t
	if err := b.gov.Check(); err != nil {
		return 0, err
	}
	// Rule overlap pruning: a rule covering the whole box shadows all
	// lower-priority rules.
	for k, ri := range ruleIdx {
		if t.boxes[ri].Covers(box) {
			ruleIdx = ruleIdx[:k+1]
			break
		}
	}
	if len(ruleIdx) == 0 {
		return refNoMatch, nil
	}
	top := ruleIdx[0]
	// Leaf when the sub-space is fully resolved: the highest-priority
	// intersecting rule covers it (then it wins everywhere inside), or
	// all 104 bits are consumed (the box is a single point, which every
	// remaining rule covers).
	if pos >= rules.KeyBits || t.boxes[top].Covers(box) {
		return refLeaf(int(top)), nil
	}

	var key string
	if memo != nil {
		sig := b.signature(pos, box, ruleIdx)
		if r, ok := memo[string(sig)]; ok {
			return r, nil
		}
		key = string(sig) // b.sig is reused by the children
	}

	w := t.cfg.StrideW
	dim := dimOfBit(pos)
	cells := 1 << w
	log2cw := uint(rules.DimBits[dim]) - (pos - rules.DimOffset[dim]) - w

	childMemo := memo // ShareGlobal: one map for the whole tree
	if b.mode == ShareSiblings {
		childMemo = make(map[string]ref)
	}
	lv := &b.levels[pos/w]
	lv.distribute(t.boxes, box, dim, log2cw, cells, ruleIdx)

	boxLo := box[dim].Lo
	n := &node{level: int(pos / w), ptrs: make([]ref, cells)}
	var cellRules []int32
	for c := 0; c < cells; c++ {
		if !lv.same[c] {
			cellRules = lv.rules[lv.off[c]:lv.off[c+1]]
		} else if childMemo != nil {
			// Cell c would compute cell c-1's signature and hit the memo
			// entry cell c-1 left (or resolve to the same leaf).
			n.ptrs[c] = n.ptrs[c-1]
			continue
		}
		// Under ShareNone a same cell is built on its own, from the rules
		// of the last cell that had a bucket.
		cellBox := box
		cellBox[dim] = rules.Span{
			Lo: boxLo + uint32(uint64(c)<<log2cw),
			Hi: boxLo + uint32(uint64(c+1)<<log2cw) - 1,
		}
		child, err := b.build(pos+w, cellBox, cellRules, childMemo)
		if err != nil {
			return 0, err
		}
		n.ptrs[c] = child
	}
	// The MaxNodes counter is shared by every builder of a parallel build,
	// so the cap bounds the whole tree; with in-flight charges the total
	// can overshoot by at most one node per worker.
	if int(b.count.Add(1)) > t.cfg.MaxNodes {
		return 0, fmt.Errorf("expcuts: node budget %d exhausted (rule set %q, w=%d, sharing %v)",
			t.cfg.MaxNodes, t.rs.Name, w, b.mode)
	}
	// Charge the node (pointer array + header + amortized expansion
	// scratch — see the constants below) and, below, its memo entry (key
	// bytes + map slot) against the governor.
	if err := b.gov.Nodes(1, int64(cells)*8+nodeOverheadBytes); err != nil {
		return 0, err
	}
	id := ref(len(b.nodes))
	b.nodes = append(b.nodes, n)
	if memo != nil {
		if err := b.gov.Memo(1, int64(len(key))+memoOverheadBytes); err != nil {
			return 0, err
		}
		memo[key] = id
	}
	return id, nil
}

// distribute spreads ruleIdx (all intersecting box) over the 2^w cells of
// box cut along dim, each cell 2^log2cw values wide. A rule wide along dim
// touches many cells, most of them same, so same cells get no bucket and
// the fill skips them through the next chain: filling every cell instead
// makes CR02, CR04 and ACL1_10K-remainder builds 1.3×, 1.25× and 1.5×
// slower (BenchmarkExpCutsBuild, 2-vCPU Xeon).
//
// Two difference arrays make it linear in rules plus cells. A rule whose
// clip touches cells [lo, hi] and covers cells [flo, fhi] whole adds one
// to the bucket size of [lo, hi], and marks cell c as differing from c-1
// for every c in [lo, flo] or [fhi+1, hi+1]: those are exactly the pairs
// (c-1, c) where the rule touches either cell without covering both.
func (lv *cellBuckets) distribute(boxes []rules.Box, box rules.Box, dim rules.Dim, log2cw uint, cells int, ruleIdx []int32) {
	if lv.off == nil {
		lv.off = make([]int32, cells+1)
		lv.diff = make([]int32, cells+2)
		lv.brk = make([]int32, cells+2)
		lv.next = make([]int32, cells+1)
		lv.next[cells] = int32(cells)
		lv.same = make([]bool, cells)
	}
	clear(lv.diff)
	clear(lv.brk)
	boxLo := box[dim].Lo
	mask := uint32(uint64(1)<<log2cw - 1)
	for _, ri := range ruleIdx {
		clip, _ := boxes[ri][dim].Intersect(box[dim])
		lo := int((clip.Lo - boxLo) >> log2cw)
		hi := int((clip.Hi - boxLo) >> log2cw)
		flo, fhi := lo, hi
		if (clip.Lo-boxLo)&mask != 0 {
			flo++
		}
		if (clip.Hi-boxLo)&mask != mask {
			fhi--
		}
		lv.diff[lo]++
		lv.diff[hi+1]--
		lv.brk[lo]++
		lv.brk[flo+1]--
		lv.brk[fhi+1]++
		lv.brk[hi+2]--
	}
	// Prefix sums: bucket sizes and offsets. diff[c] becomes cell c's fill
	// cursor.
	size, brk, total := int32(0), int32(0), int32(0)
	for c := 0; c < cells; c++ {
		size += lv.diff[c]
		brk += lv.brk[c]
		lv.same[c] = c > 0 && brk == 0
		lv.off[c] = total
		lv.diff[c] = total
		if !lv.same[c] {
			total += size
		}
	}
	lv.off[cells] = total
	for c := cells - 1; c >= 0; c-- {
		lv.next[c] = int32(c)
		if lv.same[c] {
			lv.next[c] = lv.next[c+1]
		}
	}
	lv.rules = slices.Grow(lv.rules[:0], int(total))[:total]
	for _, ri := range ruleIdx {
		clip, _ := boxes[ri][dim].Intersect(box[dim])
		lo := int((clip.Lo - boxLo) >> log2cw)
		hi := int((clip.Hi - boxLo) >> log2cw)
		for c := int(lv.next[lo]); c <= hi; c = int(lv.next[c+1]) {
			lv.rules[lv.diff[c]] = ri
			lv.diff[c]++
		}
	}
}

// bucket returns cell c's rules: its own bucket, or for a same cell the
// bucket of the nearest cell before it that has one (cell 0 always does).
func (lv *cellBuckets) bucket(c int) []int32 {
	for lv.same[c] {
		c--
	}
	return lv.rules[lv.off[c]:lv.off[c+1]]
}

// Estimated per-entry heap costs used by the governor's byte accounting.
// A node charges cells*8 + nodeOverheadBytes: the live ptrs array is
// cells*4, and the other cells*4 amortized the per-cell rule-distribution
// slices the builder once allocated while expanding each node. Calibrated
// against measured peak HeapAlloc on ACL-family builds at 10k/100k rules,
// where the previous cells*4+48 charge ran ~4× under the real peak in the
// early, rule-heavy phase of the build (trips fired *after* the blowup).
// The builder now distributes rules into per-level scratch instead, so the
// same charge over-counts a little (416/475 MB charged against a measured
// 244/310 MB peak after the first 150,000 nodes of 10k/100k builds, inside
// the 3× band buildgov's TestEstimateAccuracyAtScale enforces). It is kept
// unchanged so that a budget trips on the same accounting as before; only
// how much a build gets through before its deadline has moved.
const (
	nodeOverheadBytes = 256
	memoOverheadBytes = 64
)

// signature produces the sharing key for a sub-space: the bit position plus
// each intersecting rule's identity and box-relative clipped geometry. Two
// sub-spaces with equal signatures have identical sub-trees: all boxes at
// one bit position are translates of the same shape, lookups index children
// by key-bit extraction (box-independent), and the relative geometry fixes
// every later cut decision. The key lives in b.sig until the next call, so
// a memo probe with string(sig) allocates nothing.
func (b *builder) signature(pos uint, box rules.Box, ruleIdx []int32) []byte {
	sig := binary.AppendUvarint(b.sig[:0], uint64(pos))
	for _, ri := range ruleIdx {
		sig = binary.AppendUvarint(sig, uint64(ri))
		rb := &b.t.boxes[ri]
		for d := range rb {
			clip, _ := rb[d].Intersect(box[d])
			sig = binary.AppendUvarint(sig, uint64(clip.Lo-box[d].Lo))
			sig = binary.AppendUvarint(sig, uint64(clip.Hi-box[d].Lo))
		}
	}
	b.sig = sig
	return sig
}

// dimOfBit returns the dimension owning key bit position pos.
func dimOfBit(pos uint) rules.Dim {
	for d := 0; d < rules.NumDims; d++ {
		if pos < rules.DimOffset[d]+rules.DimBits[d] {
			return rules.Dim(d)
		}
	}
	panic(fmt.Sprintf("expcuts: bit position %d beyond key", pos))
}

// Classify is the native (untraced) lookup, walking the flat node arena:
// per level one HABS word load, a popcount rank, and one CPA pointer load
// — the in-memory mirror of the serialized SRAM access pattern, with no
// per-node Go pointers to chase.
func (t *Tree) Classify(h rules.Header) int {
	k := h.Key()
	w := t.cfg.StrideW
	u := w - t.cfg.HabsV
	lowU := uint32(1)<<u - 1
	r := t.root
	pos := uint(0)
	for r >= 0 {
		c := k.Bits(pos, w)
		rank := uint32(bits.OnesCount64(t.ar.habs[r]&(uint64(2)<<(c>>u)-1))) - 1
		r = t.ar.cpa[t.ar.cpaBase[r]+rank<<u+(c&lowU)]
		pos += w
	}
	if r == refNoMatch {
		return -1
	}
	return refRule(r)
}

// classifyGraph walks the builder's pointer graph. It exists to cross-check
// the arena walk in tests; serving always uses Classify/ClassifyBatch.
func (t *Tree) classifyGraph(h rules.Header) int {
	k := h.Key()
	w := t.cfg.StrideW
	r := t.root
	pos := uint(0)
	for r >= 0 {
		r = t.nodes[r].ptrs[k.Bits(pos, w)]
		pos += w
	}
	if r == refNoMatch {
		return -1
	}
	return refRule(r)
}

// Name identifies the algorithm in reports.
func (t *Tree) Name() string { return "ExpCuts" }

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// MemoryBytes returns the aggregated (HABS/CPA) serialized footprint.
func (t *Tree) MemoryBytes() int { return t.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (t *Tree) Image() *memlayout.Image { return t.image }

// Depth returns the explicit tree depth ⌈104/w⌉.
func (t *Tree) Depth() int { return int((rules.KeyBits + t.cfg.StrideW - 1) / t.cfg.StrideW) }

// StageFill snapshots the cumulative per-stage fill of the pipelined batch
// walk: element l is the total number of packets that entered level l across
// all ClassifyBatchPipelined calls since the tree was built. Dividing by
// element 0 gives the survival profile — how much of each batch is still
// unresolved at each pipeline stage, the software mirror of per-stage
// occupancy on a hardware pipeline. Safe to call concurrently with serving.
func (t *Tree) StageFill() []uint64 {
	out := make([]uint64, len(t.stageFill))
	for i := range t.stageFill {
		out[i] = t.stageFill[i].Load()
	}
	return out
}

func (t *Tree) collectStats() {
	st := &t.stats
	st.Depth = t.Depth()
	st.NodesPerLevel = make([]int, st.Depth)
	st.Nodes = len(t.nodes)
	st.WorstCaseAccesses = 2 * st.Depth
	uniqueTotal := 0
	cells := 1 << t.cfg.StrideW
	sub := 1 << (t.cfg.StrideW - t.cfg.HabsV)
	distinct := make(map[ref]bool, 1<<t.cfg.StrideW)
	for _, n := range t.nodes {
		st.NodesPerLevel[n.level]++
		clear(distinct)
		for i, p := range n.ptrs {
			// Equal neighbours are common (sibling reuse, runs of one
			// leaf); skipping them spares most of the map writes.
			if i == 0 || p != n.ptrs[i-1] {
				distinct[p] = true
			}
		}
		uniqueTotal += len(distinct)
		// Aggregated: 1 HABS word + one 2^u-pointer sub-array per set bit.
		subArrays := 1
		for i := sub; i < cells; i += sub {
			if !equalRefs(n.ptrs[i-sub:i], n.ptrs[i:i+sub]) {
				subArrays++
			}
		}
		st.MemoryWordsAggregated += 1 + subArrays*sub
		// Full: the raw 2^w pointer array.
		st.MemoryWordsFull += cells
	}
	if st.Nodes > 0 {
		st.AvgUniqueChildren = float64(uniqueTotal) / float64(st.Nodes)
	}
}

func equalRefs(a, b []ref) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
