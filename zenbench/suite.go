package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

// suite-cold: every registered experiment at scale 1 through the core
// scheduler and report.MarshalResults, with no caches — the `zen2ee run
// all` path. The simulator layers do nearly all the work, and the
// monolithic fig9/fig10/sec7b set the critical path.

// suiteSeeds is how many simulation seeds one untraced pass cycles through;
// computing each seed's 1-worker reference is one set-up, so set-up time is
// a median over this many set-ups.
const suiteSeeds = 3

// suiteWorkers is the scheduler pool: one worker per CPU of the 2-CPU
// reference host, never more.
const suiteWorkers = 2

// suiteMinIters keeps the median meaningful when one iteration is slow.
const suiteMinIters = 3

// suiteRun is one `run all` execution.
type suiteRun struct {
	doc    []byte
	wall   time.Duration
	shards int
	// expDone is each experiment's completion time since the run started
	// (what a user watching `run all` progress waits for); expElapsed is
	// its own first-shard-to-reduce span, keyed by ID.
	expDone    []float64
	expElapsed map[string]float64
	marshal    time.Duration
	spans      []obs.Span
}

func runSuiteOnce(o core.Options, workers int, traced bool) (*suiteRun, error) {
	cfg := core.RunConfig{Workers: workers}
	if traced {
		cfg.Trace = obs.New(64 << 20)
	}
	r := &suiteRun{expElapsed: map[string]float64{}}
	var results []*core.Result
	var mu sync.Mutex
	start := time.Now()
	err := core.RunSweepStream(core.Sweep{Configs: []core.Config{o}}, cfg,
		func(_ int, cr core.ConfigResult, _ error) { results = cr.Results },
		func(p core.Progress) {
			if !p.ExperimentDone() {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			r.expDone = append(r.expDone, ms(time.Since(start)))
			r.expElapsed[p.ID] = ms(p.Elapsed)
			r.shards += p.Shards
		})
	if err != nil {
		return nil, err
	}
	m0 := time.Now()
	r.doc, err = report.MarshalResults(results, o)
	r.marshal = time.Since(m0)
	r.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if traced {
		r.spans, _ = cfg.Trace.Snapshot()
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runSuite(p params) (*outcome, error) {
	out := newOutcome()
	n := suiteSeeds
	if p.traced {
		n = 1
	}
	r := newRNG(p.seed, "suite-cold")
	opts := make([]core.Options, n)
	refs := make([][]byte, n)
	refShards := make([]int, n)
	refPaper := make([]string, n)
	var setup []float64
	for i := range opts {
		opts[i] = core.Options{Scale: 1, Seed: simSeed(r.next())}
		t0 := time.Now()
		ref, err := runSuiteOnce(opts[i], 1, false)
		if err != nil {
			return nil, fmt.Errorf("reference run (seed %d): %w", opts[i].Seed, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		refs[i], refShards[i] = ref.doc, ref.shards
		ps, err := paperStatsOf([][]byte{ref.doc})
		if err != nil {
			return nil, err
		}
		refPaper[i] = ps.counts
	}
	out.e2e["setup_s"] = median(setup)

	var walls, jobs []float64
	shards := 0
	var measured time.Duration
	perExp := map[string][]float64{}
	var critical, runMS, waitMS, busy, reduce, marshal []float64
	for it := 0; it < suiteMinIters || measured < p.budget; it++ {
		i := it % n
		out.attempted++
		run, err := runSuiteOnce(opts[i], suiteWorkers, p.traced)
		if err != nil {
			out.fail("suite-cold iteration %d (seed %d): %v", it, opts[i].Seed, err)
			continue
		}
		measured += run.wall
		walls = append(walls, run.wall.Seconds())
		jobs = append(jobs, run.expDone...)
		shards += run.shards
		if !bytes.Equal(run.doc, refs[i]) {
			out.fail("suite-cold iteration %d (seed %d): document differs from the 1-worker reference", it, opts[i].Seed)
		}
		if run.shards != refShards[i] {
			out.fail("suite-cold iteration %d: %d shards, the reference ran %d", it, run.shards, refShards[i])
		}
		if !p.traced {
			continue
		}
		if ps, err := paperStatsOf([][]byte{run.doc}); err != nil || ps.counts != refPaper[i] {
			out.fail("suite-cold iteration %d: paper-check counts %s, the reference has %s (%v)", it, ps.counts, refPaper[i], err)
		}
		longest := 0.0
		for id, e := range run.expElapsed {
			perExp[id] = append(perExp[id], e)
			longest = max(longest, e)
		}
		critical = append(critical, longest)
		var shardRun []float64
		red := 0.0
		for _, s := range run.spans {
			switch s.Cat {
			case obs.CatShard:
				shardRun = append(shardRun, ms(s.Dur))
				runMS = append(runMS, ms(s.Dur))
				waitMS = append(waitMS, ms(s.Wait))
			case obs.CatReduce:
				red += ms(s.Dur)
			}
		}
		if len(shardRun) != run.shards {
			out.fail("suite-cold iteration %d: trace holds %d shard spans for %d shards", it, len(shardRun), run.shards)
		}
		busy = append(busy, sum(shardRun)/(ms(run.wall)*suiteWorkers))
		reduce = append(reduce, red)
		marshal = append(marshal, ms(run.marshal))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every suite-cold iteration failed: %v", out.failures)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["shards_per_s"] = float64(shards) / measured.Seconds()
	out.setJobs(jobs, measured, "experiments; latency is time from the start of `run all` to the experiment's completion")
	if err := out.setPaper(refs); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.digest, out.digestOf = digestDocs(refs), fmt.Sprintf("%d reference documents at scale 1", n)
	out.note("suite-cold: %d iterations over %d seeds, median %.3f s", len(walls), n, median(walls))

	if p.traced {
		for _, e := range core.Registry() {
			out.layers["core.exp."+e.ID+".ms"] = median(perExp[e.ID])
		}
		out.layers["core.critical_path_ms"] = median(critical)
		out.layers["core.shards"] = float64(refShards[0])
		out.layers["core.shard_run_ms.p50"] = median(runMS)
		out.layers["core.shard_run_ms.max"] = maxOf(runMS)
		out.layers["core.shard_wait_ms.p50"] = median(waitMS)
		out.layers["core.pool_busy_ratio"] = median(busy)
		out.layers["core.reduce_ms.sum"] = median(reduce)
		out.layers["report.marshal_ms"] = median(marshal)
	}
	return out, nil
}
