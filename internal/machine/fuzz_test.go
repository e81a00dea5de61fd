package machine

import (
	"testing"

	"zen2ee/internal/cstate"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// TestRandomOperationInvariants drives the machine with random operation
// sequences and checks global invariants after every step:
//
//   - system power stays within physical bounds,
//   - AC energy and per-thread counters are monotone,
//   - effective frequencies stay within the architectural range,
//   - the simulation never panics or deadlocks.
func TestRandomOperationInvariants(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(string(rune('a'+int(seed))), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

func fuzzOnce(t *testing.T, seed uint64) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	m := New(cfg)
	rng := sim.NewRNG(seed * 977)
	kernels := workload.All()
	freqs := []int{1500, 2200, 2500}

	lastEnergy := 0.0
	lastCycles := make([]float64, m.Top.NumThreads())

	for op := 0; op < 300; op++ {
		th := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
		switch rng.Intn(8) {
		case 0, 1: // start a random kernel
			k := kernels[rng.Intn(len(kernels))]
			if m.Top.Online(th) {
				if _, err := m.StartKernel(th, k, rng.Float64()); err != nil {
					t.Fatalf("op %d: StartKernel: %v", op, err)
				}
			}
		case 2: // stop
			m.StopKernel(th)
		case 3: // frequency request
			if err := m.SetThreadFrequencyMHz(th, freqs[rng.Intn(3)]); err != nil {
				t.Fatalf("op %d: SetThreadFrequencyMHz: %v", op, err)
			}
		case 4: // offline/online (never cpu0)
			if th != 0 {
				online := m.Top.Online(th)
				if err := m.SetOnline(th, !online); err != nil {
					t.Fatalf("op %d: SetOnline: %v", op, err)
				}
			}
		case 5: // C-state disable/enable
			s := cstate.State(1 + rng.Intn(2))
			if err := m.SetCStateEnabled(th, s, rng.Intn(2) == 0); err != nil {
				t.Fatalf("op %d: SetCStateEnabled: %v", op, err)
			}
		case 6: // weight change on both SMT siblings, one refresh
			m.SetHammingWeights([]soc.ThreadID{th, m.Top.Sibling(th)}, rng.Float64())
		case 7: // I/O die knob
			m.SetDRAMClock([]int{1467, 1600}[rng.Intn(2)])
		}
		m.Eng.RunFor(rng.DurationRange(10*sim.Microsecond, 3*sim.Millisecond))

		// Invariants.
		p := m.SystemWatts()
		if p < 99.0 || p > 1500 {
			t.Fatalf("op %d: power %v W out of bounds", op, p)
		}
		e := m.EnergyJoules(m.Eng.Now())
		if e < lastEnergy {
			t.Fatalf("op %d: energy decreased %v -> %v", op, lastEnergy, e)
		}
		lastEnergy = e
		for c := 0; c < m.Top.NumCores(); c++ {
			f := m.EffectiveMHz(soc.CoreID(c))
			if f < 300 || f > 3500 {
				t.Fatalf("op %d: core %d frequency %v MHz out of range", op, c, f)
			}
		}
		// Spot-check counter monotonicity on a few threads.
		for i := 0; i < 4; i++ {
			tid := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
			cyc := m.ReadCounters(tid).Cycles
			if cyc < lastCycles[tid] {
				t.Fatalf("op %d: thread %d cycles decreased", op, tid)
			}
			lastCycles[tid] = cyc
		}
	}
}

// TestFuzzDeterminism re-runs a fuzz sequence and requires identical
// observable state.
func TestFuzzDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		cfg := DefaultConfig()
		cfg.Seed = 99
		m := New(cfg)
		rng := sim.NewRNG(4242)
		for op := 0; op < 100; op++ {
			th := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
			switch rng.Intn(3) {
			case 0:
				m.StartKernel(th, workload.Firestarter, 0)
			case 1:
				m.StopKernel(th)
			case 2:
				m.SetThreadFrequencyMHz(th, 2200)
			}
			m.Eng.RunFor(rng.DurationRange(sim.Microsecond, sim.Millisecond))
		}
		return m.EnergyJoules(m.Eng.Now()), m.SystemWatts()
	}
	e1, p1 := run()
	e2, p2 := run()
	if e1 != e2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%v, %v) vs (%v, %v)", e1, p1, e2, p2)
	}
}
