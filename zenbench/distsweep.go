package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/dist"
	"zen2ee/internal/report"
)

// dist-sweep: a dist.Coordinator on loopback with two in-process workers of
// one slot each, running a sweep of the sharded experiments over a seed
// range drawn from the workload seed, streamed through report.SweepWriter.
// Its shards are many and short, so lease, HTTP and codec overhead
// dominate — the opposite of suite-cold's few long shards.

var distIDs = []string{"fig7", "fig8", "tab1", "fig4"}

const (
	distScale   = 0.25
	distConfigs = 8
	// distWorkers × one slot each, and as many scheduler goroutines:
	// never more than the 2-CPU reference host has.
	distWorkers = 2
	// distSetups bring-ups are timed per pass; set-up time is their median.
	distSetups = 5
)

// distProbe times the worker side of the protocol from the benchmark's own
// wrappers around dist.WorkerConfig.Execute and .Client.
type distProbe struct {
	mu       sync.Mutex
	execs    map[string]execRecord // shard ref → its remote execution
	execMS   []float64
	leaseMS  []float64
	register []float64
	requests atomic.Int64
	bytes    atomic.Int64
	// transport matches the worker's own default: an idle pool covering
	// its completion poster, lease fetcher and heartbeat.
	transport *http.Transport
}

type execRecord struct {
	start time.Time
	dur   time.Duration
}

func newDistProbe() *distProbe {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 3
	return &distProbe{execs: map[string]execRecord{}, transport: tr}
}

// execute wraps the production executor.
func (dp *distProbe) execute(t dist.TaskSpec) (any, error) {
	start := time.Now()
	out, err := core.ExecuteShardRef(t.Ref)
	d := time.Since(start)
	dp.mu.Lock()
	dp.execs[t.Ref.String()] = execRecord{start, d}
	dp.execMS = append(dp.execMS, ms(d))
	dp.mu.Unlock()
	return out, err
}

// RoundTrip counts requests and bytes each way, and times lease and
// register round trips (the response body is read by the worker before
// the next call, so the time to headers is the round trip).
func (dp *distProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := dp.transport.RoundTrip(req)
	d := time.Since(start)
	dp.requests.Add(1)
	if req.ContentLength > 0 {
		dp.bytes.Add(req.ContentLength)
	}
	if err != nil {
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &dp.bytes}
	dp.mu.Lock()
	switch {
	case strings.HasSuffix(req.URL.Path, "/lease"):
		dp.leaseMS = append(dp.leaseMS, ms(d))
	case strings.HasSuffix(req.URL.Path, "/register"):
		dp.register = append(dp.register, ms(d))
	}
	dp.mu.Unlock()
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// fleet is a coordinator serving loopback HTTP plus its in-process workers.
type fleet struct {
	coord  *dist.Coordinator
	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(probe *distProbe) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: dist.NewCoordinator(dist.Config{})}
	f.srv = &http.Server{Handler: f.coord.Handler()}
	go f.srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < distWorkers; i++ {
		cfg := dist.WorkerConfig{Coordinator: "http://" + ln.Addr().String(), Name: fmt.Sprintf("bench-%d", i), Slots: 1}
		if probe != nil {
			cfg.Execute = probe.execute
			cfg.Client = &http.Client{Transport: probe}
		}
		w, err := dist.NewWorker(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns once ctx is cancelled and the drain ends
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for f.coord.WorkersConnected() < distWorkers {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("only %d of %d workers registered", f.coord.WorkersConnected(), distWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the workers first (they deregister through the still-running
// coordinator), then the listener and the coordinator.
func (f *fleet) close() {
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	f.coord.Close()
}

// distRun is one streamed sweep.
type distRun struct {
	doc      []byte
	wall     time.Duration
	shards   int
	sections []float64 // each configuration's delivery time since start
	write    time.Duration
}

// runSweepDoc streams sw through report.SweepWriter. runShard, when set,
// dispatches every shard (the coordinator's hook).
func runSweepDoc(sw core.Sweep, runShard func(core.ShardTask) (any, string, error)) (*distRun, error) {
	ids, err := core.CanonicalIDs(sw.IDs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	r := &distRun{}
	start := time.Now()
	w, err := report.NewSweepWriter(&buf, ids, sw.Configs)
	if err != nil {
		return nil, err
	}
	var cbErr error
	var mu sync.Mutex
	err = core.RunSweepStream(sw, core.RunConfig{Workers: distWorkers, RunShard: runShard},
		func(i int, cr core.ConfigResult, cfgErr error) {
			if cfgErr != nil || cbErr != nil {
				return
			}
			doc, err := report.MarshalResults(cr.Results, cr.Config)
			if err != nil {
				cbErr = err
				return
			}
			w0 := time.Now()
			cbErr = w.WriteSection(i, doc)
			r.write += time.Since(w0)
			r.sections = append(r.sections, ms(time.Since(start)))
		},
		func(p core.Progress) {
			if p.ExperimentDone() {
				mu.Lock()
				r.shards += p.Shards
				mu.Unlock()
			}
		})
	if err == nil {
		err = cbErr
	}
	if err != nil {
		return nil, err
	}
	w0 := time.Now()
	if err := w.Close(); err != nil {
		return nil, err
	}
	r.write += time.Since(w0)
	r.wall = time.Since(start)
	r.doc = buf.Bytes()
	return r, nil
}

func distSweep(seed uint64) core.Sweep {
	base := simSeed(newRNG(seed, "dist-sweep").next())
	seeds := make([]uint64, distConfigs)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return core.Sweep{IDs: distIDs, Configs: core.Grid([]float64{distScale}, seeds)}
}

func runDist(p params) (*outcome, error) {
	out := newOutcome()
	sw := distSweep(p.seed)
	var probe *distProbe
	if p.traced {
		probe = newDistProbe()
	}

	// One set-up is bringing the fleet up and computing the local
	// reference document; the last fleet is kept for measuring.
	var f *fleet
	var ref *distRun
	var setup []float64
	for i := 0; i < distSetups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(probe); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		r, err := runSweepDoc(sw, nil)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("local reference sweep: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if ref != nil && !bytes.Equal(r.doc, ref.doc) {
			out.fail("dist-sweep: local reference sweeps differ between set-ups")
		}
		ref = r
	}
	defer f.close()
	out.e2e["setup_s"] = median(setup)
	if probe != nil {
		probe.mu.Lock()
		probe.execMS, probe.leaseMS = nil, nil
		probe.mu.Unlock()
		probe.requests.Store(0)
		probe.bytes.Store(0)
	}

	var walls, jobs, dispatch, overhead, write []float64
	var measured time.Duration
	shards, remote := 0, 0
	var hookMu sync.Mutex
	for it := 0; it < suiteMinIters || measured < p.budget; it++ {
		out.attempted++
		h := f.coord.StartRun(nil)
		hook := h.RunShard
		if probe != nil {
			hook = func(st core.ShardTask) (any, string, error) {
				start := time.Now()
				o, origin, err := h.RunShard(st)
				total := time.Since(start)
				probe.mu.Lock()
				ex, ok := probe.execs[st.Ref.String()]
				delete(probe.execs, st.Ref.String())
				probe.mu.Unlock()
				hookMu.Lock()
				if origin != "" {
					remote++
				}
				if ok {
					dispatch = append(dispatch, ms(ex.start.Sub(start)))
					overhead = append(overhead, ms(total-ex.dur))
				}
				hookMu.Unlock()
				return o, origin, err
			}
		}
		r, err := runSweepDoc(sw, hook)
		h.Finish()
		if err != nil {
			out.fail("dist-sweep iteration %d: %v", it, err)
			continue
		}
		measured += r.wall
		walls = append(walls, r.wall.Seconds())
		jobs = append(jobs, r.sections...)
		shards += r.shards
		write = append(write, ms(r.write))
		if !bytes.Equal(r.doc, ref.doc) {
			out.fail("dist-sweep iteration %d: document differs from the local sweep", it)
		}
		if r.shards != ref.shards {
			out.fail("dist-sweep iteration %d: %d shards, the local sweep ran %d", it, r.shards, ref.shards)
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every dist-sweep iteration failed: %v", out.failures)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["shards_per_s"] = float64(shards) / measured.Seconds()
	out.setJobs(jobs, measured, "sweep configurations; latency is time from the start of the sweep to the configuration's section")
	if err := out.setPaper([][]byte{ref.doc}); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.digest, out.digestOf = digestDocs([][]byte{ref.doc}), fmt.Sprintf("sweep of %s at scale %g, seeds %d..%d",
		strings.Join(distIDs, ","), distScale, sw.Configs[0].Seed, sw.Configs[len(sw.Configs)-1].Seed)
	out.note("dist-sweep: %d iterations of %d shards, median %.3f s", len(walls), ref.shards, median(walls))

	if probe != nil {
		probe.mu.Lock()
		defer probe.mu.Unlock()
		out.layers["dist.dispatch_ms.p50"] = median(dispatch)
		out.layers["dist.exec_ms.p50"] = median(probe.execMS)
		out.layers["dist.overhead_ms.p50"] = median(overhead)
		out.layers["dist.http_requests_per_shard"] = float64(probe.requests.Load()) / float64(shards)
		out.layers["dist.http_bytes_per_shard"] = float64(probe.bytes.Load()) / float64(shards)
		out.layers["dist.lease_rtt_ms.p50"] = median(probe.leaseMS)
		out.layers["dist.remote_ratio"] = float64(remote) / float64(shards)
		out.layers["dist.retries"] = float64(f.coord.RetriesTotal())
		out.layers["dist.register_ms"] = median(probe.register)
		out.layers["report.sweep_write_ms"] = median(write)
	}
	return out, nil
}
