package expcuts

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rulegen"
	"repro/internal/rules"
)

// golden pins one reference build: the SHA-256 of its saved image, the root
// pointer word, and the node counts. Any builder change that shares nodes
// differently, orders them differently or resolves a cell differently moves
// at least one of the four.
type golden struct {
	sha     string
	rootPtr uint32
	nodes   int
	perLvl  []int
}

func imageSHA(t *testing.T, tree *Tree) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Image().Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name string, tree *Tree, want golden) {
	t.Helper()
	st := tree.Stats()
	got := golden{sha: imageSHA(t, tree), rootPtr: tree.RootPtr(), nodes: st.Nodes, perLvl: st.NodesPerLevel}
	if got.sha != want.sha || got.rootPtr != want.rootPtr || got.nodes != want.nodes ||
		!slices.Equal(got.perLvl, want.perLvl) {
		t.Errorf("%s: image drifted from the pinned build\n got  sha=%s root=%#x nodes=%d perLevel=%v\n want sha=%s root=%#x nodes=%d perLevel=%v",
			name, got.sha, got.rootPtr, got.nodes, got.perLvl, want.sha, want.rootPtr, want.nodes, want.perLvl)
	}
}

// TestGoldenImages pins the serialized images of standard rule-set builds
// under both memo scopes and with sequential and parallel builders. The
// values were recorded from the builder that recursed into every cell and
// recomputed each rule's box per use; a faster builder must reproduce them
// byte for byte.
func TestGoldenImages(t *testing.T) {
	for _, tc := range []struct {
		set     string
		sharing SharingMode
		workers int
		want    golden
	}{
		{"CR02", ShareGlobal, 0, golden{
			"fb04d09fcf7e1ee65a2bd56ee03e254828fb19890da4ca41206270730e030477", 0x1ba0, 4073,
			[]int{1, 7, 153, 161, 161, 246, 370, 322, 322, 322, 322, 701, 985}}},
		{"CR02", ShareGlobal, 2, golden{
			"398c5467f568801d7e2c0c01dd55c0f38c060ff7a4027bab1b586ff3c23a0e33", 0x1bc2, 4243,
			[]int{1, 8, 154, 162, 162, 252, 386, 338, 338, 338, 338, 734, 1032}}},
		{"CR04", ShareGlobal, 0, golden{
			"18b2665caa50eba0d8dd2670b216b303deb2f11a6dcddd6cc7684d75533a2688", 0x3578, 11466,
			[]int{1, 6, 322, 357, 357, 518, 1168, 1031, 1023, 1023, 1023, 2046, 2591}}},
		{"CR04", ShareGlobal, 2, golden{
			"130a50003441df97c30ec96892ba3a979cf0b33a34bb6994090ea61174d5293f", 0x359a, 11873,
			[]int{1, 7, 323, 358, 358, 524, 1209, 1073, 1065, 1065, 1065, 2125, 2700}}},
		{"FW01", ShareSiblings, 0, golden{
			"d60d6aaf1c4b0a50ce3db60be44fc25a15934df938c4a77957c512f2bf0ae44b", 0x94d, 34088,
			[]int{1, 18, 43, 71, 85, 267, 2238, 4295, 4929, 4929, 4929, 6070, 6213}}},
	} {
		rs, err := rulegen.Standard(tc.set)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(rs, Config{Sharing: tc.sharing, BuildWorkers: tc.workers})
		if err != nil {
			t.Fatalf("%s: %v", tc.set, err)
		}
		checkGolden(t, fmt.Sprintf("%s/%v/workers=%d", tc.set, tc.sharing, tc.workers), tree, tc.want)
	}
}

// TestDistributeMatchesNaive checks the difference-array rule distribution
// against the direct definitions on random node boxes of random rule sets,
// across strides: every cell holds exactly the rules whose span
// meets it, in priority order, and a cell is same exactly when it holds
// cell c-1's rules and each of them spans both cells whole.
func TestDistributeMatchesNaive(t *testing.T) {
	rs := buildSet(t, rulegen.Random, 120, 351)
	rng := rand.New(rand.NewSource(352))
	tree := newTree(rs, Config{})
	for _, w := range []uint{1, 2, 4, 8} {
		cells := 1 << w
		var lv cellBuckets
		nRules, nSame := 0, 0
		for trial := 0; trial < 200; trial++ {
			// A node box at pos: the bits before pos are fixed by a point
			// inside a random rule, the rest of the key is free.
			pos := uint(rng.Intn(rules.KeyBits/int(w))) * w
			var h [rules.NumDims]uint32
			for d, s := range tree.boxes[rng.Intn(len(tree.boxes))] {
				h[d] = s.Lo + uint32(rng.Int63n(int64(s.Size())))
			}
			box := rules.FullBox()
			for d := 0; d < rules.NumDims; d++ {
				off, bits := rules.DimOffset[d], rules.DimBits[d]
				if pos <= off {
					continue
				}
				free := uint(0)
				if pos < off+bits {
					free = off + bits - pos
				}
				lo := h[d] &^ uint32(uint64(1)<<free-1)
				box[d] = rules.Span{Lo: lo, Hi: lo + uint32(uint64(1)<<free-1)}
			}
			var ruleIdx []int32
			for i := range tree.boxes {
				if tree.boxes[i].Overlaps(box) {
					ruleIdx = append(ruleIdx, int32(i))
				}
			}
			dim := dimOfBit(pos)
			log2cw := rules.DimBits[dim] - (pos - rules.DimOffset[dim]) - w
			cellSpan := func(c int) rules.Span {
				lo := box[dim].Lo + uint32(uint64(c)<<log2cw)
				return rules.Span{Lo: lo, Hi: lo + uint32(uint64(1)<<log2cw-1)}
			}
			want := make([][]int32, cells)
			for _, ri := range ruleIdx {
				for c := 0; c < cells; c++ {
					if tree.boxes[ri][dim].Overlaps(cellSpan(c)) {
						want[c] = append(want[c], ri)
					}
				}
			}
			nRules += len(ruleIdx)
			lv.distribute(tree.boxes, box, dim, log2cw, cells, ruleIdx)
			for c := 0; c < cells; c++ {
				same := c > 0 && slices.Equal(want[c], want[c-1])
				for _, ri := range want[c] {
					s := tree.boxes[ri][dim]
					same = same && s.Covers(cellSpan(c-1)) && s.Covers(cellSpan(c))
				}
				if same {
					nSame++
				}
				if lv.same[c] != same {
					t.Fatalf("w=%d pos=%d cell %d: same=%v, want %v", w, pos, c, lv.same[c], same)
				}
				if got := lv.bucket(c); !slices.Equal(got, want[c]) {
					t.Fatalf("w=%d pos=%d cell %d: bucket %v, want %v", w, pos, c, got, want[c])
				}
			}
		}
		t.Logf("w=%d: %d rules per box, %d same cells", w, nRules/200, nSame)
	}
}
