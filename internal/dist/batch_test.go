// Batched leases and plain completions: one long-poll may grant up to Max
// tasks (capped at maxLeaseBatch), completions carry plain gob whatever a
// worker offers at register, and the worker pipeline drains a batch across
// its slots.

package dist

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// leaseBatch polls once asking for up to max tasks.
func (w *rawWorker) leaseBatch(waitMS int64, max int) []TaskSpec {
	w.t.Helper()
	var resp leaseResponse
	w.post("/dist/v1/lease", leaseRequest{WorkerID: w.id, WaitMillis: waitMS, Max: max}, &resp, http.StatusOK)
	return resp.Tasks
}

func TestBatchedLeaseGrantsMultipleTasks(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "batcher", 4)

	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < 4; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	waitFor(t, "all 4 tasks queued", func() bool { return env.c.PendingTasks() == 4 })

	specs := w.leaseBatch(100, 8)
	if len(specs) != 4 {
		t.Fatalf("batch lease granted %d tasks, want all 4", len(specs))
	}
	for i := range specs {
		w.complete(&specs[i], float64(specs[i].Ref.Shard)*10)
	}
	for shard, ch := range chans {
		o := waitOutcome(t, ch)
		if o.err != nil || o.out != float64(shard)*10 || o.origin != "batcher" {
			t.Fatalf("shard %d outcome = %+v, want %v from batcher", shard, o, float64(shard)*10)
		}
	}
}

func TestBatchedLeaseClampedByMaxLeaseBatch(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "clamped", 64)

	h := env.c.StartRun(nil)
	defer h.Finish()
	const queued = maxLeaseBatch + 4
	var chans []<-chan shardOutcome
	for shard := 0; shard < queued; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	waitFor(t, "all tasks queued", func() bool { return env.c.PendingTasks() == queued })

	first := w.leaseBatch(100, 100)
	if len(first) != 16 {
		t.Fatalf("lease with max=100 granted %d tasks, want the cap of 16", len(first))
	}
	second := w.leaseBatch(100, 100)
	if len(second) != queued-16 {
		t.Fatalf("second batch granted %d tasks, want the remaining %d", len(second), queued-16)
	}
	for _, specs := range [][]TaskSpec{first, second} {
		for i := range specs {
			w.complete(&specs[i], float64(specs[i].Ref.Shard))
		}
	}
	for shard, ch := range chans {
		if o := waitOutcome(t, ch); o.err != nil || o.out != float64(shard) {
			t.Fatalf("shard %d outcome = %+v", shard, o)
		}
	}
}

// TestRegisterNegotiatesCompression pins wire compatibility with workers
// that still offer flate at register: the coordinator declines by echoing
// no compression, so such a worker sends plain gob, and that completion
// lands.
func TestRegisterNegotiatesCompression(t *testing.T) {
	env := newTestEnv(t, Config{})
	body := strings.NewReader(`{"name":"zip","slots":1,"compression":"flate"}`)
	hres, err := http.Post(env.ts.URL+"/dist/v1/register", "application/json", body)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer hres.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(hres.Body).Decode(&raw); err != nil || hres.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d, decode err %v", hres.StatusCode, err)
	}
	if c, ok := raw["compression"]; ok {
		t.Fatalf("register offering flate got compression %s, want no compression key", c)
	}
	w := &rawWorker{t: t, base: env.ts.URL}
	if err := json.Unmarshal(raw["worker_id"], &w.id); err != nil || w.id == "" {
		t.Fatalf("register returned worker_id %s", raw["worker_id"])
	}

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, nil))
	spec := w.leaseUntil(5 * time.Second)
	w.complete(spec, 7.5)
	if o := waitOutcome(t, ch); o.err != nil || o.out != 7.5 || o.origin != "zip" {
		t.Fatalf("outcome = %+v, want 7.5 from zip", o)
	}
}

func TestCorruptCompletionFailsShardLoudly(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "mangler", 1)

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, nil))
	spec := w.leaseUntil(5 * time.Second)

	w.post("/dist/v1/complete", completeRequest{
		WorkerID: w.id, TaskID: spec.ID, Output: []byte("not a gob stream"),
	}, nil, http.StatusOK)

	o := waitOutcome(t, ch)
	if o.err == nil || !strings.Contains(o.err.Error(), "decoding output") {
		t.Fatalf("corrupt completion outcome = %+v, want a loud decode failure", o)
	}
}

func TestWorkerBatchPipelineExecutesAll(t *testing.T) {
	env := newTestEnv(t, Config{})
	var execs atomic.Int64
	startWorker(t, env, WorkerConfig{
		Name: "pipeline", Slots: 2,
		Execute: func(ts TaskSpec) (any, error) {
			execs.Add(1)
			return float64(ts.Ref.Shard) * 3, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < 8; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	for shard, ch := range chans {
		o := waitOutcome(t, ch)
		if o.err != nil || o.out != float64(shard)*3 || o.origin != "pipeline" {
			t.Fatalf("shard %d outcome = %+v", shard, o)
		}
	}
	if execs.Load() != 8 {
		t.Fatalf("worker executed %d shards, want 8", execs.Load())
	}
}
