package dist

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zen2ee/internal/core"
)

// BenchmarkDistributedDispatchOverhead measures the full cost of pushing
// one shard through the coordinator instead of calling it directly: HTTP
// lease round-trip, gob codec both ways, and lease bookkeeping, against a
// loopback worker whose Execute is free. This is the per-shard tax of
// distribution — worthwhile exactly when shard execution time dwarfs it.
func BenchmarkDistributedDispatchOverhead(b *testing.B) {
	c := NewCoordinator(Config{})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL, Name: "bench", Slots: 2,
		Execute: func(TaskSpec) (any, error) { return 1.0, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()
	for deadline := time.Now().Add(5 * time.Second); c.WorkersConnected() == 0; {
		if time.Now().After(deadline) {
			b.Fatal("bench worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	h := c.StartRun(nil)
	defer h.Finish()
	st := core.ShardTask{
		Ref:    core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0},
		Shards: 1, Label: "bench",
		Run: func() (any, error) { return 1.0, nil },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.RunShard(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedLeaseDispatch measures per-shard dispatch overhead with
// many shards in flight — the shape a real sweep presents — against an
// 8-slot worker, whose fetcher asks for up to 8 tasks per long-poll so the
// HTTP overhead amortizes across the grant. On a single-core machine the
// saving understates: fetcher, slots, and posters all serialize onto one
// CPU, so the amortized lease traffic is the only saving that shows up.
// The sub-benchmark name keeps benchdiff pairing with earlier baselines.
func BenchmarkBatchedLeaseDispatch(b *testing.B) {
	b.Run("batch=8", func(b *testing.B) {
		c := NewCoordinator(Config{})
		defer c.Close()
		ts := httptest.NewServer(c.Handler())
		defer ts.Close()
		w, err := NewWorker(WorkerConfig{
			Coordinator: ts.URL, Name: "bench", Slots: 8,
			Execute: func(TaskSpec) (any, error) { return 1.0, nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		defer func() { cancel(); <-done }()
		for deadline := time.Now().Add(5 * time.Second); c.WorkersConnected() == 0; {
			if time.Now().After(deadline) {
				b.Fatal("bench worker never registered")
			}
			time.Sleep(time.Millisecond)
		}

		h := c.StartRun(nil)
		defer h.Finish()
		st := core.ShardTask{
			Ref:    core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0},
			Shards: 1, Label: "bench",
			Run: func() (any, error) { return 1.0, nil },
		}
		sem := make(chan struct{}, 64)
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if _, _, err := h.RunShard(st); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkLocalDispatchBaseline is the same shard executed directly —
// the number the distributed overhead is read against.
func BenchmarkLocalDispatchBaseline(b *testing.B) {
	run := func() (any, error) { return 1.0, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
