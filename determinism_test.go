package zen2ee

// The cross-worker-count determinism matrix: the scheduling-model contract
// is that sharded and monolithic execution of the same (ids, scale, seed)
// produce byte-identical canonical JSON (report.MarshalResults) for every
// worker count and shard interleaving. These tests pin that contract on the
// heavy sharded experiments the redesign targets.

import (
	"bytes"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

// runConfig runs the named experiments at one configuration through the
// shard scheduler — the one-config sweep every single run issues.
func runConfig(ids []string, o core.Options, workers int) ([]*core.Result, error) {
	sr, err := core.RunSweep(core.Sweep{IDs: ids, Configs: []core.Config{o}}, core.RunConfig{Workers: workers}, nil)
	if sr == nil {
		return nil, err
	}
	return sr.Runs[0].Results, err
}

// marshalSet runs the named experiments through the shard scheduler at the
// given worker count and returns the canonical JSON document.
func marshalSet(t *testing.T, ids []string, o core.Options, workers int) []byte {
	t.Helper()
	results, err := runConfig(ids, o, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.MarshalResults(results, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFig7DeterminismMatrix(t *testing.T) {
	o := core.Options{Scale: 2, Seed: 1}
	ids := []string{"fig7"}

	// Monolithic reference: RunOne executes the synthesized serial plan on
	// one goroutine.
	mono, err := core.RunOne("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.MarshalResults([]*core.Result{mono}, o)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		got := marshalSet(t, ids, o, workers)
		if !bytes.Equal(got, want) {
			t.Errorf("fig7 with %d workers produced different canonical JSON than the monolithic run", workers)
		}
	}
}

func TestShardedSuiteDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sharded heavy set three times")
	}
	// All four converted experiments at once, so cross-experiment shard
	// interleaving is exercised too.
	ids := []string{"tab1", "fig4", "fig7", "fig8"}
	o := core.Options{Scale: 0.5, Seed: 42}
	want := marshalSet(t, ids, o, 1)
	for _, workers := range []int{2, 8} {
		if got := marshalSet(t, ids, o, workers); !bytes.Equal(got, want) {
			t.Errorf("worker count %d changed the canonical JSON document", workers)
		}
	}
}
