package machine

import (
	"fmt"
	"strings"
	"testing"

	"zen2ee/internal/power"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// tickCores are the active-core counts the control-tick benchmark sweeps,
// in the avx-turbo style (the same load at 1..N active cores): the SMU's
// per-package pass and the refresh its cap changes trigger both scale with
// the active cores.
var tickCores = []int{1, 16, 64}

// loadedMachine returns a machine running k on the first thread of the
// first n cores at 2.5 GHz, past the EDC onset transient, and those threads.
func loadedMachine(tb testing.TB, k workload.Kernel, n int) (*Machine, []soc.ThreadID) {
	tb.Helper()
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		tb.Fatal(err)
	}
	threads := firstThreads(m, n)
	if err := m.StartKernels(threads, k, 0.5); err != nil {
		tb.Fatal(err)
	}
	settle(m, 20*m.cfg.SMU.ControlPeriod)
	return m, threads
}

// BenchmarkSMUControlTick measures one SMU control period on the full
// machine: the EDC/PPT pass over both packages, reading the refresh caches,
// plus the refresh any cap change triggers. The steady state must report
// 0 allocs/op (TestSMUControlTickAllocationFree pins it).
func BenchmarkSMUControlTick(b *testing.B) {
	for _, n := range tickCores {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m, _ := loadedMachine(b, workload.Firestarter, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Eng.RunFor(m.cfg.SMU.ControlPeriod)
			}
		})
	}
}

func TestSMUControlTickAllocationFree(t *testing.T) {
	for _, n := range tickCores {
		m, _ := loadedMachine(t, workload.Firestarter, n)
		if a := testing.AllocsPerRun(100, func() { m.Eng.RunFor(m.cfg.SMU.ControlPeriod) }); a != 0 {
			t.Errorf("%d active cores: %v allocs per control tick, want 0", n, a)
		}
	}
}

// firstThreads returns the SMT0 threads of the first n cores.
func firstThreads(m *Machine, n int) []soc.ThreadID {
	threads := make([]soc.ThreadID, n)
	for c := range threads {
		threads[c] = m.Top.Cores[c].Threads[0]
	}
	return threads
}

// parkBatch stops every listed thread with a single refresh, so the start
// benchmarks below pay the same fixed cost to return to the idle machine
// whichever way they start the threads.
func parkBatch(m *Machine, threads []soc.ThreadID) {
	m.batching = true
	for _, t := range threads {
		m.StopKernel(t)
	}
	m.batching = false
	m.refresh()
}

// startPerThread starts k on the threads one StartKernel (and refresh) at
// a time: the path StartKernels replaces.
func startPerThread(tb testing.TB, m *Machine, threads []soc.ThreadID, k workload.Kernel, weight float64) {
	for _, t := range threads {
		if _, err := m.StartKernel(t, k, weight); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkStartKernels measures waking n parked threads onto FIRESTARTER
// and parking them again, with the threads started in one batch (one
// refresh) or one at a time (a refresh each). Both report 0 allocs/op
// (TestMachineLayersAllocationFree pins it).
func BenchmarkStartKernels(b *testing.B) {
	for _, n := range []int{1, 16, 64} {
		for _, batched := range []bool{true, false} {
			mode := "per-thread"
			if batched {
				mode = "batched"
			}
			b.Run(fmt.Sprintf("threads=%d/%s", n, mode), func(b *testing.B) {
				m := newMachine()
				threads := firstThreads(m, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if batched {
						if err := m.StartKernels(threads, workload.Firestarter, 0.5); err != nil {
							b.Fatal(err)
						}
					} else {
						startPerThread(b, m, threads, workload.Firestarter, 0.5)
					}
					parkBatch(m, threads)
				}
			})
		}
	}
}

// systemWattsInput is the power-model input refresh builds for the machine's
// present state.
func systemWattsInput(m *Machine) power.Input {
	return power.Input{
		Cores:          m.inputsBuf,
		DeepSleep:      m.CStates.SystemDeepSleep(),
		IOD:            m.iod,
		DRAMTrafficGBs: m.trafficGBs,
	}
}

var wattsSink float64

// BenchmarkSystemWatts measures one evaluation of the AC power model at
// 1, 16 and 64 active cores running FIRESTARTER, in the avx-turbo style.
func BenchmarkSystemWatts(b *testing.B) {
	for _, n := range tickCores {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m, _ := loadedMachine(b, workload.Firestarter, n)
			in := systemWattsInput(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wattsSink = m.Power.SystemWatts(in)
			}
		})
	}
}

func TestMachineLayersAllocationFree(t *testing.T) {
	for _, n := range tickCores {
		m := newMachine()
		threads := firstThreads(m, n)
		start := func() {
			if err := m.StartKernels(threads, workload.Firestarter, 0.5); err != nil {
				t.Fatal(err)
			}
			parkBatch(m, threads)
		}
		if a := testing.AllocsPerRun(20, start); a != 0 {
			t.Errorf("%d threads: %v allocs per batched start, want 0", n, a)
		}
		perThread := func() {
			startPerThread(t, m, threads, workload.Firestarter, 0.5)
			parkBatch(m, threads)
		}
		if a := testing.AllocsPerRun(20, perThread); a != 0 {
			t.Errorf("%d threads: %v allocs per per-thread start, want 0", n, a)
		}
		lm, _ := loadedMachine(t, workload.Firestarter, n)
		in := systemWattsInput(lm)
		if a := testing.AllocsPerRun(100, func() { wattsSink = lm.Power.SystemWatts(in) }); a != 0 {
			t.Errorf("%d active cores: %v allocs per power-model evaluation, want 0", n, a)
		}
	}
}

// BenchmarkMachineNew measures building and wiring the full simulated
// system with every thread parked in C2.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newMachine()
	}
}

// TestHammingWeightBatchMatchesPerThread pins that one batched weight
// change is indistinguishable from changing the threads one at a time:
// all the per-thread refreshes run at the same simulated time, so the only
// state that survives them is the final one.
func TestHammingWeightBatchMatchesPerThread(t *testing.T) {
	run := func(batch bool) []float64 {
		m, threads := loadedMachine(t, workload.VXorps, 64)
		var obs []float64
		for _, w := range []float64{1, 0, 0.5} {
			if batch {
				m.SetHammingWeights(threads, w)
			} else {
				for _, th := range threads {
					m.SetHammingWeights([]soc.ThreadID{th}, w)
				}
			}
			settle(m, 50*m.cfg.SMU.ControlPeriod)
			obs = append(obs, m.SystemWatts(), m.EnergyJoules(m.Eng.Now()), m.TempC(),
				m.RAPL.PackageEnergyJoules(0), m.RAPL.CoreEnergyJoules(0), m.EffectiveMHz(0))
		}
		return obs
	}
	batched, single := run(true), run(false)
	for i := range batched {
		if batched[i] != single[i] {
			t.Fatalf("observable %d: batched %v, per-thread %v", i, batched[i], single[i])
		}
	}
}

// TestStartKernelsMatchesPerThread pins that starting a batch of threads
// with StartKernels is indistinguishable from starting them one at a time:
// the per-thread refreshes all run at one simulated instant, so only the
// final state survives them.
func TestStartKernelsMatchesPerThread(t *testing.T) {
	observe := func(m *Machine) []float64 {
		now := m.Eng.Now()
		obs := []float64{m.SystemWatts(), m.EnergyJoules(now), m.TempC()}
		for p := range m.Top.Packages {
			obs = append(obs, m.RAPL.PackageEnergyJoules(soc.PackageID(p)))
		}
		for c := range m.Top.Cores {
			core := soc.CoreID(c)
			obs = append(obs, m.RAPL.CoreEnergyJoules(core), m.EffectiveMHz(core))
		}
		for th := 0; th < m.Top.NumThreads(); th++ {
			cnt := m.ReadCounters(soc.ThreadID(th))
			obs = append(obs, cnt.Cycles, cnt.Instructions, cnt.Mperf)
		}
		return obs
	}
	allThreads := func(m *Machine) []soc.ThreadID {
		threads := make([]soc.ThreadID, m.Top.NumThreads())
		for i := range threads {
			threads[i] = soc.ThreadID(i)
		}
		return threads
	}
	for _, tc := range []struct {
		name    string
		threads func(*Machine) []soc.ThreadID
	}{
		{"first-threads=32", func(m *Machine) []soc.ThreadID { return firstThreads(m, 32) }},
		{"first-threads=64", func(m *Machine) []soc.ThreadID { return firstThreads(m, 64) }},
		{"threads=128", allThreads},
	} {
		run := func(batch bool) []float64 {
			m := newMachine()
			if err := m.SetAllFrequenciesMHz(2500); err != nil {
				t.Fatal(err)
			}
			settle(m, 3*m.cfg.SMU.ControlPeriod)
			threads := tc.threads(m)
			if batch {
				if err := m.StartKernels(threads, workload.Firestarter, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				startPerThread(t, m, threads, workload.Firestarter, 0)
			}
			obs := observe(m)
			settle(m, 50*m.cfg.SMU.ControlPeriod)
			return append(obs, observe(m)...)
		}
		batched, single := run(true), run(false)
		for i := range batched {
			if batched[i] != single[i] {
				t.Fatalf("%s: observable %d: batched %v, per-thread %v", tc.name, i, batched[i], single[i])
			}
		}
	}

	// An offline thread in the middle of the batch fails the call with an
	// error naming it; the threads before it are started and refreshed, as
	// if they had been started one at a time.
	batch, ref := newMachine(), newMachine()
	threads := firstThreads(batch, 8)
	bad := threads[4]
	for _, m := range []*Machine{batch, ref} {
		if err := m.SetOnline(bad, false); err != nil {
			t.Fatal(err)
		}
	}
	err := batch.StartKernels(threads, workload.Firestarter, 0)
	if want := fmt.Sprintf("start %s on thread %d: ", workload.Firestarter.Name, bad); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
	startPerThread(t, ref, threads[:4], workload.Firestarter, 0)
	for i, th := range threads {
		if got, want := batch.Running(th), i < 4; got != want {
			t.Errorf("thread %d running = %v, want %v", th, got, want)
		}
	}
	for step := 0; step < 2; step++ {
		b, r := observe(batch), observe(ref)
		for i := range b {
			if b[i] != r[i] {
				t.Fatalf("after the failed batch (step %d): observable %d: batched %v, per-thread %v", step, i, b[i], r[i])
			}
		}
		settle(batch, 20*batch.cfg.SMU.ControlPeriod)
		settle(ref, 20*ref.cfg.SMU.ControlPeriod)
	}
}
