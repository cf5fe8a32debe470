package expcuts

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buildgov"
	"repro/internal/rules"
)

// buildParallel constructs the tree with cfg.BuildWorkers builder
// goroutines. The root's 2^w cells are statically partitioned into
// contiguous chunks — one worker per chunk, each with its own node slice,
// memo scope and signature scratch — so workers share no mutable state
// except the governor and the MaxNodes counter, both atomic. After the
// join, the worker node slices are concatenated in worker order with a
// single ref-offset remap pass, and the root node is assembled last
// (matching the sequential build's root-last ordering).
//
// The static partition makes the result deterministic for a fixed worker
// count. It classifies identically to a sequential build but is not
// node-for-node identical: ShareGlobal deduplication happens within each
// worker rather than across the whole tree, so a parallel tree may hold
// more (never fewer-matching) nodes. Budget exactness is unaffected —
// every appended node and memo entry is charged exactly once, and a trip
// by any worker is sticky for all of them, which is what bounds a tripped
// build's unwind time under fan-out.
func (t *Tree) buildParallel(gov *buildgov.Governor, count *atomic.Int64, all []int32, workers int) (ref, error) {
	// Root terminal cases, mirroring the top of builder.build.
	box := rules.FullBox()
	for k, ri := range all {
		if t.boxes[ri].Covers(box) {
			all = all[:k+1]
			break
		}
	}
	if len(all) == 0 {
		return refNoMatch, nil
	}
	if t.boxes[all[0]].Covers(box) {
		return refLeaf(int(all[0])), nil
	}

	w := t.cfg.StrideW
	dim := dimOfBit(0)
	cells := 1 << w
	log2cw := uint(rules.DimBits[dim]) - w
	var rootCells cellBuckets
	rootCells.distribute(t.boxes, box, dim, log2cw, cells, all)
	boxLo := box[dim].Lo

	if workers > cells {
		workers = cells
	}
	type chunk struct {
		b        *builder
		lo, hi   int   // root cell range [lo, hi)
		children []ref // worker-local refs for those cells
		err      error
	}
	chunks := make([]*chunk, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		cb := t.newBuilder(gov, count)
		ck := &chunk{b: cb, lo: k * cells / workers, hi: (k + 1) * cells / workers}
		ck.children = make([]ref, ck.hi-ck.lo)
		chunks[k] = ck
		wg.Add(1)
		go func() {
			defer wg.Done()
			// ShareSiblings scope: the root's children in this chunk
			// share one memo (the sequential build shares across all 2^w
			// siblings; per-chunk scoping only reduces deduplication).
			childMemo := cb.memo
			if cb.mode == ShareSiblings {
				childMemo = make(map[string]ref)
			}
			for c := ck.lo; c < ck.hi; c++ {
				if c > ck.lo && rootCells.same[c] && childMemo != nil {
					ck.children[c-ck.lo] = ck.children[c-ck.lo-1]
					continue
				}
				cellBox := box
				cellBox[dim] = rules.Span{
					Lo: boxLo + uint32(uint64(c)<<log2cw),
					Hi: boxLo + uint32(uint64(c+1)<<log2cw) - 1,
				}
				r, err := cb.build(w, cellBox, rootCells.bucket(c), childMemo)
				if err != nil {
					ck.err = err
					return
				}
				ck.children[c-ck.lo] = r
			}
		}()
	}
	wg.Wait()

	// Prefer the governor's sticky error so every caller of a tripped
	// build sees the same *BudgetError regardless of which worker(s) also
	// failed for secondary reasons.
	if err := gov.Err(); err != nil {
		return 0, err
	}
	for _, ck := range chunks {
		if ck.err != nil {
			return 0, ck.err
		}
	}

	// Merge: concatenate worker node slices in worker order, remapping
	// worker-local node refs by each worker's base offset.
	total := 0
	offsets := make([]ref, workers)
	for k, ck := range chunks {
		offsets[k] = ref(total)
		total += len(ck.b.nodes)
	}
	t.nodes = make([]*node, 0, total+1)
	for k, ck := range chunks {
		off := offsets[k]
		for _, n := range ck.b.nodes {
			if off != 0 {
				for i, p := range n.ptrs {
					if p >= 0 {
						n.ptrs[i] = p + off
					}
				}
			}
			t.nodes = append(t.nodes, n)
		}
	}

	root := &node{level: 0, ptrs: make([]ref, cells)}
	for k, ck := range chunks {
		for i, r := range ck.children {
			if r >= 0 {
				r += offsets[k]
			}
			root.ptrs[ck.lo+i] = r
		}
	}
	if int(count.Add(1)) > t.cfg.MaxNodes {
		return 0, fmt.Errorf("expcuts: node budget %d exhausted (rule set %q, w=%d, sharing %v)",
			t.cfg.MaxNodes, t.rs.Name, w, t.cfg.Sharing)
	}
	if err := gov.Nodes(1, int64(cells)*8+nodeOverheadBytes); err != nil {
		return 0, err
	}
	id := ref(len(t.nodes))
	t.nodes = append(t.nodes, root)
	return id, nil
}
