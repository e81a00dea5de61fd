package zen2ee

// Golden output digests pin the simulator's science across commits: the
// determinism matrices compare one build against itself, while these
// digests compare every build against committed reference bytes. A digest
// that moves means some experiment's canonical JSON changed. That is either
// a bug or a deliberate model change; the latter is regenerated with
//
//	go test -run TestGoldenDigests . -update-golden
//
// and declared in CHANGES.md.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from the current simulator output")

const goldenPath = "testdata/golden_digests.json"

// goldenGrid is the fixed configuration grid the digests cover: small
// enough to run in tier-1, with two seeds so a seed-independent change and
// a stream-dependent one both show.
var goldenGrid = core.Grid([]float64{0.2}, []uint64{1, 2})

// goldenDigests runs every experiment at every goldenGrid configuration and
// returns the SHA-256 of each experiment's canonical JSON document, keyed by
// "scale=<s>/seed=<n>/<experiment id>".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	sr, err := core.RunSweep(core.Sweep{Configs: goldenGrid}, core.RunConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, run := range sr.Runs {
		for _, r := range run.Results {
			doc, err := report.MarshalResults([]*core.Result{r}, run.Config)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(doc)
			key := fmt.Sprintf("scale=%g/seed=%d/%s", run.Config.Scale, run.Config.Seed, r.ID)
			out[key] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; other architectures may fuse floating-point multiply-adds and change the bits")
	}
	got := goldenDigests(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	changed := 0
	for _, k := range keys {
		if got[k] != want[k] {
			changed++
			t.Errorf("%s: digest %q, golden %q", k, got[k], want[k])
		}
	}
	if changed > 0 {
		t.Fatalf("simulator output changed (%d of %d digests): regenerate with -update-golden and declare it in CHANGES.md", changed, len(keys))
	}
}
