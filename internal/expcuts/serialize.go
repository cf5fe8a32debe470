package expcuts

import (
	"fmt"

	"repro/internal/bitstring"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// Serialized node format (aggregated, Figure 4 of the paper adapted to a
// fixed stride):
//
//	word 0:  HABS bit string (2^v significant bits)
//	word 1+: CPA — one 2^u-pointer sub-array per set HABS bit
//
// The cutting information of the paper's node word (dimension, stride) is
// implicit here because the stride is fixed and the level determines the key
// bits — that is the "explicit" in Explicit Cuttings. A level therefore
// costs exactly two single-word SRAM reads: the HABS word and the indexed
// CPA pointer. Leaves are encoded in pointer words (memlayout.LeafPtr), so
// they cost nothing: the final CPA read *is* the classification result.
//
// serialize places levels onto SRAM channels per the headroom allocation
// (§5.3, Table 4), deepest level first so child pointers exist when their
// parents are written.
func (t *Tree) serialize() error {
	alloc, err := memlayout.AllocateLevels(
		memlayout.UniformDemand(t.stats.Depth), t.cfg.Headroom, t.cfg.Channels)
	if err != nil {
		return err
	}
	t.image = memlayout.NewImage()
	t.nodeAddrs = make([]uint32, len(t.nodes))

	byLevel := make([][]ref, t.stats.Depth)
	for id, n := range t.nodes {
		byLevel[n.level] = append(byLevel[n.level], ref(id))
	}
	w, v := t.cfg.StrideW, t.cfg.HabsV
	ptrBuf := make([]uint32, 1<<w)
	for level := t.stats.Depth - 1; level >= 0; level-- {
		ch := alloc[level]
		for _, id := range byLevel[level] {
			n := t.nodes[id]
			for i, r := range n.ptrs {
				ptrBuf[i] = t.refToPtr(r)
			}
			habs, err := bitstring.CompressHABS(ptrBuf, w, v)
			if err != nil {
				return fmt.Errorf("expcuts: compressing node %d: %w", id, err)
			}
			words := append([]uint32{habs.Bits}, habs.CPA...)
			off := t.image.Alloc(ch, words)
			t.nodeAddrs[id] = memlayout.NodePtr(ch, off)
		}
	}
	t.rootPtr = t.refToPtr(t.root)
	t.stats.MemoryWordsAggregated = t.image.TotalWords()
	return nil
}

// RootPtr returns the root pointer word of the serialized image: the entry
// point a loader needs next to Image (a leaf pointer when the whole space
// resolves to one verdict).
func (t *Tree) RootPtr() uint32 { return t.rootPtr }

// refToPtr converts an in-memory child reference to its pointer word. Node
// references require the node to have been placed already (levels are
// serialized bottom-up).
func (t *Tree) refToPtr(r ref) uint32 {
	if r == refNoMatch {
		return memlayout.LeafPtr(-1)
	}
	if r < 0 {
		return memlayout.LeafPtr(refRule(r))
	}
	return t.nodeAddrs[r]
}

// Lookup runs the serialized lookup against mem: per level, one HABS-word
// read, the POP_COUNT decode, and one CPA pointer read.
func (t *Tree) Lookup(mem nptrace.Mem, h rules.Header) int {
	return t.LookupCosts(mem, h, nptrace.DefaultCosts)
}

// LookupCosts is Lookup with an explicit cycle-cost model. Substituting
// Costs.PopCountRISC for Costs.PopCount reproduces the paper's §5.4
// instruction-selection ablation (a software popcount takes >100 RISC
// instructions per level).
func (t *Tree) LookupCosts(mem nptrace.Mem, h rules.Header, costs nptrace.Costs) int {
	w, v := t.cfg.StrideW, t.cfg.HabsV
	u := w - v
	k := h.Key()
	ptr := t.rootPtr
	pos := uint(0)
	for !memlayout.IsLeaf(ptr) {
		ch, off := memlayout.NodeAddr(ptr)
		mem.Compute(costs.ALU + costs.IssueIO) // extract key chunk, issue
		habs := mem.Read(ch, off, 1)[0]
		n := k.Bits(pos, w)
		m := n >> u
		j := n & (1<<u - 1)
		// AND off the high bits, POP_COUNT, form the CPA index (§5.4).
		mem.Compute(costs.ALU + costs.PopCount + 2*costs.ALU + costs.IssueIO)
		i := uint32(bitstring.Rank(habs, uint(m))) - 1
		ptr = mem.Read(ch, off+1+i<<u+j, 1)[0]
		pos += w
	}
	return memlayout.LeafRule(ptr)
}

// Program records the access program for one header.
func (t *Tree) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(t.image)
	return rec.Finish(t.Lookup(rec, h))
}

// ProgramCosts records the access program under an explicit cost model.
func (t *Tree) ProgramCosts(h rules.Header, costs nptrace.Costs) nptrace.Program {
	rec := nptrace.NewRecorder(t.image)
	return rec.Finish(t.LookupCosts(rec, h, costs))
}

// Verify cross-checks the serialized lookup against the native tree walk.
func (t *Tree) Verify(headers []rules.Header) error {
	mem := nptrace.NullMem{R: t.image}
	for _, h := range headers {
		if got, want := t.Lookup(mem, h), t.Classify(h); got != want {
			return fmt.Errorf("expcuts: serialized lookup %d != native %d for %v", got, want, h)
		}
	}
	return nil
}

// FullTree is the un-aggregated serialization of an ExpCuts tree: every
// internal node stores its raw 2^w pointer array, so a level costs a single
// SRAM read but the footprint is the "without aggregation" bar of Figure 6
// — too large for the SRAM chips on the larger rule sets.
type FullTree struct {
	t       *Tree
	image   *memlayout.Image
	rootPtr uint32
}

// Full serializes the un-aggregated variant of the tree.
func (t *Tree) Full() (*FullTree, error) {
	alloc, err := memlayout.AllocateLevels(
		memlayout.UniformDemand(t.stats.Depth), t.cfg.Headroom, t.cfg.Channels)
	if err != nil {
		return nil, err
	}
	f := &FullTree{t: t, image: memlayout.NewImage()}
	addrs := make([]uint32, len(t.nodes))
	byLevel := make([][]ref, t.stats.Depth)
	for id, n := range t.nodes {
		byLevel[n.level] = append(byLevel[n.level], ref(id))
	}
	refToPtr := func(r ref) uint32 {
		if r == refNoMatch {
			return memlayout.LeafPtr(-1)
		}
		if r < 0 {
			return memlayout.LeafPtr(refRule(r))
		}
		return addrs[r]
	}
	ptrBuf := make([]uint32, 1<<t.cfg.StrideW)
	for level := t.stats.Depth - 1; level >= 0; level-- {
		ch := alloc[level]
		for _, id := range byLevel[level] {
			n := t.nodes[id]
			for i, r := range n.ptrs {
				ptrBuf[i] = refToPtr(r)
			}
			off := f.image.Alloc(ch, ptrBuf)
			addrs[id] = memlayout.NodePtr(ch, off)
		}
	}
	f.rootPtr = refToPtr(t.root)
	return f, nil
}

// MemoryBytes returns the un-aggregated footprint.
func (f *FullTree) MemoryBytes() int { return f.image.TotalBytes() }

// Image exposes the serialized image.
func (f *FullTree) Image() *memlayout.Image { return f.image }

// Lookup runs the un-aggregated serialized lookup: one pointer read per
// level.
func (f *FullTree) Lookup(mem nptrace.Mem, h rules.Header) int {
	costs := nptrace.DefaultCosts
	w := f.t.cfg.StrideW
	k := h.Key()
	ptr := f.rootPtr
	pos := uint(0)
	for !memlayout.IsLeaf(ptr) {
		ch, off := memlayout.NodeAddr(ptr)
		mem.Compute(2*costs.ALU + costs.IssueIO)
		ptr = mem.Read(ch, off+k.Bits(pos, w), 1)[0]
		pos += w
	}
	return memlayout.LeafRule(ptr)
}

// Program records the access program for one header.
func (f *FullTree) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(f.image)
	return rec.Finish(f.Lookup(rec, h))
}
