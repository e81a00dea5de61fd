package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

func TestParseExperimentArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want experimentFlags
	}{
		{"flags before positional", []string{"-scale", "2", "all"},
			experimentFlags{opts: opts(2, 1), pos: []string{"all"}}},
		{"flags after positional", []string{"all", "-scale=2"},
			experimentFlags{opts: opts(2, 1), pos: []string{"all"}}},
		{"equals and space forms mixed", []string{"-seed=9", "fig3", "-scale", "0.5"},
			experimentFlags{opts: opts(0.5, 9), pos: []string{"fig3"}}},
		{"boolean csv", []string{"all", "-csv"},
			experimentFlags{opts: opts(1, 1), csv: true, pos: []string{"all"}}},
		{"csv with explicit value", []string{"-csv=false", "all"},
			experimentFlags{opts: opts(1, 1), pos: []string{"all"}}},
		{"boolean json", []string{"all", "-json"},
			experimentFlags{opts: opts(1, 1), jsonOut: true, pos: []string{"all"}}},
		{"json with explicit value", []string{"-json=false", "all"},
			experimentFlags{opts: opts(1, 1), pos: []string{"all"}}},
		{"parallel", []string{"run-free", "-parallel", "4"},
			experimentFlags{opts: opts(1, 1), parallel: 4, pos: []string{"run-free"}}},
		{"double dash flags", []string{"--scale", "3", "all"},
			experimentFlags{opts: opts(3, 1), pos: []string{"all"}}},
		{"end-of-flags marker", []string{"-scale", "2", "--", "-weird-id"},
			experimentFlags{opts: opts(2, 1), pos: []string{"-weird-id"}}},
		{"sweep axes", []string{"-scales", "1,2,4", "-seeds", "1..3", "fig7"},
			experimentFlags{opts: opts(1, 1), scales: []float64{1, 2, 4}, seeds: []uint64{1, 2, 3}, pos: []string{"fig7"}}},
		{"seed list with ranges", []string{"-seeds=2,5..7,10"},
			experimentFlags{opts: opts(1, 1), seeds: []uint64{2, 5, 6, 7, 10}}},
		{"profiling flags", []string{"fig7", "-cpuprofile", "cpu.out", "-memprofile=mem.out"},
			experimentFlags{opts: opts(1, 1), cpuprofile: "cpu.out", memprofile: "mem.out", pos: []string{"fig7"}}},
		{"output file", []string{"-o", "out.json", "-json", "fig1"},
			experimentFlags{opts: opts(1, 1), jsonOut: true, output: "out.json", pos: []string{"fig1"}}},
		{"trace file", []string{"fig1", "-trace", "trace.json"},
			experimentFlags{opts: opts(1, 1), trace: "trace.json", pos: []string{"fig1"}}},
	}
	for _, c := range cases {
		got, err := parseExperimentArgs(c.args)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func opts(scale float64, seed uint64) core.Options {
	return core.Options{Scale: scale, Seed: seed}
}

func TestParseExperimentArgsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus", "all"},                     // unknown flag must not become positional
		{"all", "-scale"},                     // missing value
		{"-scale", "two", "all"},              // non-numeric value
		{"-scale", "0", "all"},                // scale must be positive (Options.Validate)
		{"-scale", "-2", "all"},               // negative scale
		{"-scale", "Inf", "all"},              // non-finite scale
		{"-scale", "NaN", "all"},              // non-finite scale
		{"-parallel", "0", "all"},             // workers below 1
		{"-parallel", "-1", "all"},            // negative workers
		{"-csv=maybe", "all"},                 // bad boolean
		{"-json=maybe", "all"},                // bad boolean
		{"-scales", "1,zero"},                 // non-numeric scale in axis
		{"-scales", "1,-2"},                   // negative scale in axis
		{"-seeds", "8..1"},                    // descending range
		{"-seeds", "1..1000000"},              // range beyond the sanity bound
		{"-seeds", "0..18446744073709551615"}, // full uint64 range must not overflow the guard
		{"-seeds", "1..two"},                  // malformed range end
		{"-listen-workers", "127.0.0.1:0", "-lease-batch", "4", "all"}, // the batch follows the worker's slots
	} {
		if _, err := parseExperimentArgs(args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestSweepCommandGuards(t *testing.T) {
	// Single-run flags on sweep, sweep axes on run/gen-experiments, and
	// csv on sweep are all loud errors, not silent reinterpretations.
	for name, call := range map[string]func() error{
		"sweep -scale":           func() error { return sweep([]string{"-scale", "2", "fig1"}) },
		"sweep -csv":             func() error { return sweep([]string{"-csv", "fig1"}) },
		"run -scales":            func() error { return run([]string{"-scales", "1,2", "fig1"}) },
		"run -o":                 func() error { return run([]string{"-o", "out.json", "fig1"}) },
		"run -lease-batch":       func() error { return run([]string{"fig1", "-lease-batch", "4"}) },
		"gen-experiments -seeds": func() error { return genExperiments([]string{"-seeds", "1..2"}) },
		"gen-experiments -o":     func() error { return genExperiments([]string{"-o", "out.json"}) },
		"gen-experiments -trace": func() error { return genExperiments([]string{"-trace", "t.json"}) },
		"sweep duplicate ids":    func() error { return sweep([]string{"fig1", "fig1"}) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestUnknownIDFailsBeforeWaitingForWorkers: with -listen-workers and
// -min-workers, an unknown experiment ID fails at once instead of after a
// worker registers (with none, the command used to wait forever).
func TestUnknownIDFailsBeforeWaitingForWorkers(t *testing.T) {
	for name, call := range map[string]func([]string) error{"run": run, "sweep": sweep} {
		done := make(chan error, 1)
		go func() {
			done <- call([]string{"bogus", "-listen-workers", "127.0.0.1:0", "-min-workers", "1"})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
				t.Errorf("%s: err = %v, want unknown experiment \"bogus\"", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still waiting for workers after 10 s", name)
		}
	}
}

// TestSweepOutputFileAtomic: `sweep -json -o F` writes the exact collected
// sweep document through a temp file renamed into place, and a failing
// sweep leaves the previous file untouched with no temp debris.
func TestSweepOutputFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	if err := sweep([]string{"fig1", "-scales", "0.2", "-seeds", "1,2", "-json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.RunSweep(core.Sweep{
		IDs: []string{"fig1"}, Configs: core.Grid([]float64{0.2}, []uint64{1, 2}),
	}, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.MarshalSweep(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("streamed -o document differs from the collected MarshalSweep bytes")
	}

	// A failing sweep must leave the existing document alone and clean up
	// its temp file.
	if err := sweep([]string{"nonexistent", "-json", "-o", path}); err == nil {
		t.Fatal("sweep of an unknown id succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, got) {
		t.Error("failed sweep modified the previous output file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("output directory holds %v, want only sweep.json (no temp debris)", names)
	}
}

// TestSweepTraceFile: `sweep -trace F` commits a Chrome trace-event
// document that round-trips through the decoder, holds exactly one shard
// task per (config, experiment, shard), and attributes shard work to
// worker threads inside the configured pool.
func TestSweepTraceFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.json")
	tracePath := filepath.Join(dir, "trace.json")
	const workers = 2
	err := sweep([]string{"fig1", "-scales", "0.2", "-seeds", "1,2",
		"-parallel", "2", "-json", "-o", out, "-trace", tracePath})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := report.UnmarshalTrace(raw)
	if err != nil {
		t.Fatalf("trace file does not round-trip through the decoder: %v", err)
	}

	shardTasks := map[string]int{}
	configs := map[float64]bool{}
	for _, e := range doc.CompleteEvents() {
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %q has negative timing: ts=%v dur=%v", e.Name, e.TS, e.Dur)
		}
		if e.Cat != obs.CatShard {
			continue
		}
		if e.TID < 1 || e.TID > workers {
			t.Errorf("shard event %q on tid %d, want a worker thread in [1,%d]", e.Name, e.TID, workers)
		}
		cfg, ok := e.Args["config"].(float64)
		if !ok {
			t.Fatalf("shard event %q has no numeric config arg: %v", e.Name, e.Args)
		}
		configs[cfg] = true
		shardTasks[fmt.Sprintf("%v/%s", cfg, e.Name)]++
	}
	if len(configs) != 2 {
		t.Errorf("shard events span %d configs, want 2 (one per seed)", len(configs))
	}
	for key, n := range shardTasks {
		if n != 1 {
			t.Errorf("shard task %s recorded %d times, want exactly once", key, n)
		}
	}
	if len(shardTasks) == 0 {
		t.Fatal("trace holds no shard tasks")
	}
}
