package machine

import (
	"fmt"
	"testing"

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
	threads := make([]soc.ThreadID, n)
	for c := range threads {
		threads[c] = m.Top.Cores[c].Threads[0]
		if _, err := m.StartKernel(threads[c], k, 0.5); err != nil {
			tb.Fatal(err)
		}
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
