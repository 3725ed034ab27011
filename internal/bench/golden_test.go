package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// generatorDigests pins the generator's output bytes: the SHA-256 of the
// design JSON followed by the scan-plan JSON, per profile and scale. The
// legalizer places every generated cell, so a drift in its search shows
// up here before it reaches any flow result. The digests come from the
// full left-to-right row scan, so they pin the pruned search to it.
var generatorDigests = []struct {
	profile string
	scale   int
	sha256  string
}{
	{"D1", 20, "571ac0860de2b4104c2368c8c39ae65bbd88665b7c2c519db3c4348fae3aed5b"},
	{"D2", 20, "1667cf2238ecb192eac4b97d606ee775496a7fad1a7e4f7bdf4f5140404ddd23"},
	{"D3", 20, "79ca4999fe6df4be8f80ddfefa0e00f00964a42449aeb4ad9eebfdf42fa94659"},
	{"D4", 20, "99b35e83a530d81aa2820b3b00136494bbfe1d567ab5d31e9d83fc472c5ef088"},
	{"D5", 20, "e556eebec22d3329f51d57b072c6fe26eeb78c32fdf244cf9f5530491c7fa190"},
	{"D4", 5, "82bed3827b85e8593e418bd98b8473da4f8fd2f588e740d37ba6463291f266d4"},
}

func TestGeneratorGolden(t *testing.T) {
	for _, g := range generatorDigests {
		t.Run(fmt.Sprintf("%s@%d", g.profile, g.scale), func(t *testing.T) {
			spec, ok := ProfileByName(g.profile, ProfileOpts{Scale: g.scale})
			if !ok {
				t.Fatalf("unknown profile %q", g.profile)
			}
			res, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := res.Design.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if err := res.Plan.WriteJSON(h, res.Design); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
				t.Errorf("design+scan JSON SHA-256 = %s, want %s", got, g.sha256)
			}
		})
	}
}
