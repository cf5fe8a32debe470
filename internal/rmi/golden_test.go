package rmi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/rulegen"
)

// TestRemainderGoldenImage pins the ExpCuts tree built over the ACL1_10K
// remainder (the rules no iSet indexes): the SHA-256 of its saved image,
// its root pointer word and its node counts. It lives here rather than in
// the expcuts tests because rmi imports expcuts. The values were recorded
// from the builder that recursed into every cell; a faster builder must
// reproduce them byte for byte.
func TestRemainderGoldenImage(t *testing.T) {
	rs, err := rulegen.Standard("ACL1_10K")
	if err != nil {
		t.Fatal(err)
	}
	x := mustIndex(t, rs, Config{})
	tree, ok := x.rem.(*expcuts.Tree)
	if !ok {
		t.Fatalf("remainder is %T (%s), want an ExpCuts tree", x.rem, x.stats.RemainderAlgo)
	}
	var buf bytes.Buffer
	if err := tree.Image().Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	st := tree.Stats()
	const (
		wantSHA   = "9787b9c31fa26a063895b14600cc92361788d4ae1cd5d343971938e1ba62b175"
		wantRoot  = 0xb79
		wantNodes = 7290
	)
	wantPerLevel := []int{1, 9, 64, 64, 64, 944, 1069, 1061, 1042, 1042, 1042, 585, 303}
	if got := hex.EncodeToString(sum[:]); got != wantSHA || tree.RootPtr() != wantRoot ||
		st.Nodes != wantNodes || !slices.Equal(st.NodesPerLevel, wantPerLevel) {
		t.Errorf("remainder image drifted from the pinned build\n got  sha=%s root=%#x nodes=%d perLevel=%v\n want sha=%s root=%#x nodes=%d perLevel=%v",
			got, tree.RootPtr(), st.Nodes, st.NodesPerLevel, wantSHA, wantRoot, wantNodes, wantPerLevel)
	}
}
