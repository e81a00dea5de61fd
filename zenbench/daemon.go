package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
	"zen2ee/internal/service"
	"zen2ee/internal/store"
	"zen2ee/internal/tenant"
)

// daemon-mix: an in-process service.New behind a loopback HTTP server, with
// two tenants, the shard cache, and a memory-over-disk store whose memory
// tier holds fewer entries than the run's distinct specs. Two closed-loop
// clients, one per tenant, submit the generated mix, stream /events and
// GET /result. It is the only workload where the service, tenant, store,
// shard-cache and report layers do most of the work.

const (
	// daemonExecutors and the two clients: one per CPU of the 2-CPU
	// reference host.
	daemonExecutors = 2
	// daemonMemEntries bounds the memory tier (documents and shard
	// outputs together) well below any run's distinct specs, so repeats
	// reach the disk tier.
	daemonMemEntries = 24
	// daemonJobHistory keeps every job record of a run: a record evicted
	// between a client's submit and its GET /result would turn a served
	// request into a 404.
	daemonJobHistory = 1 << 20
	// rssRounds is where peak memory is read: after a fixed amount of
	// traffic, so the figure does not grow with how many rounds a fast
	// host fits into the run.
	rssRounds = 60
	// daemonSetups bring-ups are timed per pass; set-up time is their
	// median.
	daemonSetups = 3
	// digestRounds rounds (set-up round included) are covered by the
	// paper metrics and the output digest; every pass measures at least
	// this many.
	digestRounds = 10
)

var tenantKeys = []string{"alpha-key", "beta-key"}

// timedStore times calls into the daemon's result store; it is what the
// traced pass passes as service.Config.Store.
type timedStore struct {
	store.ResultStore
	mu            sync.Mutex
	get, put, has []float64 // microseconds
}

func (t *timedStore) record(into *[]float64, start time.Time) {
	d := float64(time.Since(start)) / float64(time.Microsecond)
	t.mu.Lock()
	*into = append(*into, d)
	t.mu.Unlock()
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	b, ok := t.ResultStore.Get(key)
	t.record(&t.get, start)
	return b, ok
}

func (t *timedStore) Has(key string) bool {
	start := time.Now()
	ok := t.ResultStore.Has(key)
	t.record(&t.has, start)
	return ok
}

func (t *timedStore) Put(key string, payload []byte) {
	start := time.Now()
	t.ResultStore.Put(key, payload)
	t.record(&t.put, start)
}

type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	disk   *store.Disk
	timed  *timedStore
	dir    string
}

func startDaemon(parent string, traced bool) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.disk, err = store.NewDisk(dir, 0); err != nil {
		return nil, err
	}
	var st store.ResultStore = store.NewTiered(store.NewMemory(daemonMemEntries, 0), d.disk)
	if traced {
		d.timed = &timedStore{ResultStore: st}
		st = d.timed
	}
	loose := func(name, key string) tenant.Policy {
		return tenant.Policy{Name: name, Key: key, RateRPS: 1e6, Burst: 1e6, MaxInflight: 1 << 16, MaxQueued: 1 << 16}
	}
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.Policy{
		loose("alpha", tenantKeys[0]), loose("beta", tenantKeys[1]),
	}})
	if err != nil {
		return nil, err
	}
	d.srv = service.New(service.Config{
		Executors:  daemonExecutors,
		ShardCache: true, Tenants: reg, Store: st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv}
	go d.hs.Serve(ln)
	d.base = "http://" + ln.Addr().String()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4 // two clients, each with at most two requests open
	d.client = &http.Client{Transport: tr}
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// reply is one served request.
type reply struct {
	q   request
	doc []byte
	lat time.Duration
	// submit, events and result time the three HTTP exchanges.
	submit, events, result time.Duration
	latency                *service.Latency
	err                    error
}

func (d *daemon) do(method, path, apiKey string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", apiKey)
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serve runs one request the way a client of the daemon does: submit,
// follow the event stream to its end, fetch the result.
func (d *daemon) serve(q request, apiKey string, traced bool) reply {
	rep := reply{q: q}
	type cfg struct {
		Scale float64 `json:"scale"`
		Seed  uint64  `json:"seed"`
	}
	path := "/v1/jobs"
	var spec any = map[string]any{"ids": q.ids, "scale": q.configs[0].Scale, "seed": q.configs[0].Seed}
	if q.sweep() {
		path = "/v1/sweeps"
		cs := make([]cfg, len(q.configs))
		for i, c := range q.configs {
			cs[i] = cfg{c.Scale, c.Seed}
		}
		spec = map[string]any{"ids": q.ids, "configs": cs}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		rep.err = err
		return rep
	}
	start := time.Now()
	code, b, err := d.do(http.MethodPost, path, apiKey, body)
	rep.submit = time.Since(start)
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		rep.err = fmt.Errorf("submit: status %d: %v %s", code, err, bytes.TrimSpace(b))
		return rep
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		rep.err = fmt.Errorf("submit: no job id in %q (%v)", b, err)
		return rep
	}
	t := time.Now()
	code, _, err = d.do(http.MethodGet, "/v1/jobs/"+st.ID+"/events", apiKey, nil)
	rep.events = time.Since(t)
	if err != nil || code != http.StatusOK {
		rep.err = fmt.Errorf("events: status %d: %v", code, err)
		return rep
	}
	t = time.Now()
	code, rep.doc, err = d.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", apiKey, nil)
	rep.result = time.Since(t)
	rep.lat = time.Since(start)
	if err != nil || code != http.StatusOK {
		rep.err = fmt.Errorf("result: status %d: %v %s", code, err, bytes.TrimSpace(rep.doc))
		return rep
	}
	if traced {
		// Outside the timed window: the executed job's own latency block.
		code, b, err := d.do(http.MethodGet, "/v1/jobs/"+st.ID, apiKey, nil)
		var status struct {
			Latency *service.Latency `json:"latency"`
		}
		if err != nil || code != http.StatusOK || json.Unmarshal(b, &status) != nil {
			rep.err = fmt.Errorf("status: status %d: %v", code, err)
			return rep
		}
		rep.latency = status.Latency
	}
	return rep
}

// round serves reqs with two closed-loop clients: client i takes requests
// i, i+2, i+4, … in order, as tenant i.
func (d *daemon) round(reqs []request, traced bool) []reply {
	out := make([]reply, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < len(tenantKeys); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += len(tenantKeys) {
				out[i] = d.serve(reqs[i], tenantKeys[c], traced)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func nextRound(g *generator) []request {
	reqs := make([]request, roundSize)
	for i := range reqs {
		reqs[i] = g.next()
	}
	return reqs
}

// scrape reads the daemon's /metrics into series → value.
func (d *daemon) scrape() (map[string]float64, error) {
	code, b, err := d.do(http.MethodGet, "/metrics", "", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d: %v", code, err)
	}
	return parseMetrics(b), nil
}

func parseMetrics(b []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// family sums every series of a metric family (all label sets).
func family(m map[string]float64, name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histogramMedian interpolates the median of a histogram's observations
// between two scrapes, linearly inside the bucket holding it.
func histogramMedian(before, after map[string]float64, name string) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after[name+"_count"] - before[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return math.NaN()
	}
	target := total / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			return lo + (b.le-lo)*(target-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// localDoc is the reference for a spec: the same request run locally
// through the core scheduler and the canonical encoders.
func localDoc(q request) ([]byte, error) {
	sw := core.Sweep{IDs: q.ids, Configs: q.configs}
	if q.sweep() {
		r, err := runSweepDoc(sw, nil)
		if err != nil {
			return nil, err
		}
		return r.doc, nil
	}
	var results []*core.Result
	err := core.RunSweepStream(sw, core.RunConfig{Workers: daemonExecutors},
		func(_ int, cr core.ConfigResult, _ error) { results = cr.Results }, nil)
	if err != nil {
		return nil, err
	}
	return report.MarshalResults(results, q.configs[0])
}

// checkReplies applies the output rules: every reply of a spec equals the
// spec's first reply, and every first reply equals the local run. It
// returns the first replies of the distinct specs in first-seen order.
func checkReplies(out *outcome, replies []reply, reference func(request) ([]byte, error)) [][]byte {
	first := map[string][]byte{}
	var order []request
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		k := r.q.key()
		f, ok := first[k]
		if !ok {
			first[k] = r.doc
			order = append(order, r.q)
			continue
		}
		if !bytes.Equal(r.doc, f) {
			out.fail("daemon-mix: %s: a repeated /result differs from the first", k)
		}
	}
	docs := make([][]byte, 0, len(order))
	for _, q := range order {
		doc := first[q.key()]
		ref, err := reference(q)
		if err != nil {
			out.fail("daemon-mix: local run of %s: %v", q.key(), err)
		} else if !bytes.Equal(doc, ref) {
			out.fail("daemon-mix: %s: the daemon's document differs from the local run", q.key())
		}
		docs = append(docs, doc)
	}
	return docs
}

func runDaemon(p params) (*outcome, error) {
	out := newOutcome()
	var d *daemon
	var g *generator
	var replies []reply
	var setup []float64
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(p.dir, p.traced); err != nil {
			return nil, fmt.Errorf("daemon: %w", err)
		}
		g = newGenerator(p.seed)
		replies = append(replies, d.round(nextRound(g), false)...)
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer d.close()
	out.e2e["setup_s"] = median(setup)
	if d.timed != nil {
		d.timed.mu.Lock()
		d.timed.get, d.timed.put, d.timed.has = nil, nil, nil
		d.timed.mu.Unlock()
	}
	diskBefore := d.disk.Stats()
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}

	var walls []float64
	var measured time.Duration
	var measuredReplies []reply
	for rounds := 0; rounds < digestRounds-1 || measured < p.budget; rounds++ {
		t0 := time.Now()
		rs := d.round(nextRound(g), p.traced)
		wall := time.Since(t0)
		measured += wall
		walls = append(walls, wall.Seconds())
		measuredReplies = append(measuredReplies, rs...)
		if rounds+1 == rssRounds {
			out.e2e["peak_rss_mb"] = peakRSSMB()
		}
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	diskAfter := d.disk.Stats()
	if _, ok := out.e2e["peak_rss_mb"]; !ok {
		out.e2e["peak_rss_mb"] = peakRSSMB()
	}

	var lat []float64
	byClass := map[string][]float64{}
	var submit, events, result, queue, run, marshal []float64
	for _, r := range measuredReplies {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.lat))
		byClass[r.q.class] = append(byClass[r.q.class], ms(r.lat))
		submit = append(submit, ms(r.submit))
		events = append(events, ms(r.events))
		result = append(result, ms(r.result))
		if r.latency != nil {
			queue = append(queue, 1000*r.latency.QueueSeconds)
			run = append(run, 1000*r.latency.RunSeconds)
			marshal = append(marshal, 1000*r.latency.MarshalSeconds)
		}
	}
	replies = append(replies, measuredReplies...)
	for _, r := range replies {
		out.attempted++
		if r.err != nil {
			out.fail("daemon-mix: %s: %v", r.q.key(), r.err)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every daemon-mix request failed: %v", out.failures)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["shards_per_s"] = (after["zen2eed_shard_run_seconds_count"] - before["zen2eed_shard_run_seconds_count"]) / measured.Seconds()
	out.setJobs(lat, measured, "daemon jobs; latency is submit to /result body, events streamed in between")
	var classes []string
	for _, c := range requestClasses {
		classes = append(classes, fmt.Sprintf("%s p50 %.3f ms (%d)", c, median(byClass[c]), len(byClass[c])))
	}
	out.note("daemon-mix: %d rounds of %d requests, median round %.3f s; %s",
		len(walls), roundSize, median(walls), strings.Join(classes, ", "))

	// Output checks, outside the timed window. The paper metrics and the
	// digest cover the first documents of a fixed request prefix, so they
	// do not depend on how many rounds a run reached.
	docs := checkReplies(out, replies, localDoc)
	dg := newGenerator(p.seed)
	seen := map[string]bool{}
	for i := 0; i < digestRounds*roundSize; i++ {
		seen[dg.next().key()] = true
	}
	covered := docs[:min(len(seen), len(docs))]
	if err := out.setPaper(covered); err != nil {
		return nil, err
	}
	out.digest, out.digestOf = digestDocs(covered), fmt.Sprintf("first documents of the %d distinct specs in the first %d requests", len(covered), digestRounds*roundSize)

	if p.traced {
		delta := func(name string) float64 { return family(after, name) - family(before, name) }
		hits, misses := delta("zen2eed_cache_hits_total"), delta("zen2eed_cache_misses_total")
		out.layers["service.submit_ms.p50"] = median(submit)
		out.layers["service.events_ms.p50"] = median(events)
		out.layers["service.result_ms.p50"] = median(result)
		out.layers["service.queue_ms.p50"] = median(queue)
		out.layers["service.run_ms.p50"] = median(run)
		out.layers["service.marshal_ms.p50"] = median(marshal)
		out.layers["service.cache_hit_ratio"] = ratio(hits, hits+misses)
		out.layers["service.dedup"] = delta("zen2eed_jobs_deduplicated_total")
		for _, c := range requestClasses {
			out.layers[c+"_p50_ms"] = median(byClass[c])
		}
		sh, sm := delta("zen2eed_shard_cache_hits_total"), delta("zen2eed_shard_cache_misses_total")
		out.layers["shardcache.hit_ratio"] = ratio(sh, sh+sm)
		out.layers["shardcache.bytes"] = delta("zen2eed_shard_cache_bytes_total")
		d.timed.mu.Lock()
		out.layers["store.get_us.p50"] = median(d.timed.get)
		out.layers["store.put_us.p50"] = median(d.timed.put)
		out.layers["store.has_us.p50"] = median(d.timed.has)
		out.layers["store.disk_hit_ratio"] = ratio(float64(diskAfter.Hits-diskBefore.Hits), float64(len(d.timed.get)))
		d.timed.mu.Unlock()
		out.layers["store.disk_evictions"] = float64(diskAfter.Evictions - diskBefore.Evictions)
		out.layers["tenant.admitted"] = delta("zen2eed_tenant_admitted_total")
		out.layers["tenant.rejections"] = delta("zen2eed_tenant_rejections_total")
		out.layers["tenant.shard_wait_ms.p50"] = 1000 * histogramMedian(before, after, "zen2eed_shard_queue_wait_seconds")
	}
	return out, nil
}
