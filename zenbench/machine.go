package main

import (
	"fmt"
	"time"

	"zen2ee/internal/cstate"
	"zen2ee/internal/machine"
	"zen2ee/internal/power"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// The machine probe times the simulator's own layers through
// machine.Machine's exported fields, in the avx-turbo style: the same
// FIRESTARTER load at 1, 16 and 64 active cores, because the SMU control
// loop and the machine refresh both scale with the active cores.

const (
	probeWarmup  = 20 * sim.Millisecond
	probeSteady  = 2000 * sim.Millisecond
	probeToggles = 2000
	probeNews    = 5
	probeCalls   = 200_000
)

// probeSink keeps the timed calls from being optimized away.
var probeSink float64

// steadyProbe is one active-core count's measurement.
type steadyProbe struct {
	hostPerSimMS, usPerToggle float64
	events, throttled         uint64
}

func probeCores(n int) (steadyProbe, error) {
	var sp steadyProbe
	m := machine.New(machine.DefaultConfig())
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		return sp, err
	}
	for c := 0; c < n; c++ {
		if _, err := m.StartKernel(soc.ThreadID(c), workload.Firestarter, 0.5); err != nil {
			return sp, err
		}
	}
	m.Eng.RunFor(probeWarmup)
	ev0 := m.Eng.Executed()
	start := time.Now()
	m.Eng.RunFor(probeSteady)
	host := time.Since(start)
	sp.events = m.Eng.Executed() - ev0
	sp.hostPerSimMS = float64(host) / float64(time.Microsecond) / probeSteady.Millis()
	for p := range m.Top.Packages {
		sp.throttled += m.SMU.ThrottledTicks(soc.PackageID(p))
	}

	// Churn: toggle the SMT sibling of core 0 on and off; every toggle
	// re-derives the machine state.
	sib := m.Top.Sibling(0)
	start = time.Now()
	for i := 0; i < probeToggles/2; i++ {
		if _, err := m.StartKernel(sib, workload.Firestarter, 0.5); err != nil {
			return sp, err
		}
		m.StopKernel(sib)
	}
	sp.usPerToggle = float64(time.Since(start)) / float64(time.Microsecond) / probeToggles
	return sp, nil
}

// machineProbe measures the simulator layers twice; the event and
// throttle counts are deterministic and must repeat exactly.
func machineProbe() (*outcome, error) {
	out := newOutcome()
	for _, n := range machineCores {
		var runs [2]steadyProbe
		for i := range runs {
			out.attempted++
			sp, err := probeCores(n)
			if err != nil {
				return nil, fmt.Errorf("%d active cores: %w", n, err)
			}
			runs[i] = sp
		}
		if runs[0].events != runs[1].events || runs[0].throttled != runs[1].throttled {
			out.fail("machine probe at %d cores: counts do not repeat (events %d vs %d, throttled ticks %d vs %d)",
				n, runs[0].events, runs[1].events, runs[0].throttled, runs[1].throttled)
		}
		out.layers[coresName("machine.steady_us_per_sim_ms", n)] = median([]float64{runs[0].hostPerSimMS, runs[1].hostPerSimMS})
		out.layers[coresName("machine.churn_us_per_op", n)] = median([]float64{runs[0].usPerToggle, runs[1].usPerToggle})
		out.layers[coresName("sim.events_per_sim_ms", n)] = float64(runs[0].events) / probeSteady.Millis()
		if n == 64 {
			out.layers["smu.throttled_ticks.64"] = float64(runs[0].throttled)
		}
	}

	var news []float64
	var m *machine.Machine
	for i := 0; i < probeNews; i++ {
		start := time.Now()
		m = machine.New(machine.DefaultConfig())
		news = append(news, float64(time.Since(start))/float64(time.Microsecond))
	}
	out.layers["machine.new_us"] = median(news)

	in := power.CoreInput{State: cstate.C0, ActiveThreads: 2, Kernel: workload.Firestarter, GHz: 2.5, Volts: 1.1, HammingWeight: 0.5}
	cores := make([]power.CoreInput, m.Top.NumCores()/len(m.Top.Packages))
	for i := range cores {
		cores[i] = in
	}
	out.layers["power.core_watts_ns"] = timeCalls(func() { probeSink += m.Power.CoreWatts(in) })
	out.layers["power.package_dyn_watts_ns"] = timeCalls(func() { probeSink += m.Power.PackageDynWatts(cores) })
	m.Eng.RunFor(probeWarmup)
	out.layers["rapl.package_energy_read_ns"] = timeCalls(func() { probeSink += m.RAPL.PackageEnergyJoules(0) })
	out.attempted++
	return out, nil
}

// timeCalls returns the mean nanoseconds per call of f over probeCalls
// calls, the median of three such batches.
func timeCalls(f func()) float64 {
	var batches []float64
	for b := 0; b < 3; b++ {
		start := time.Now()
		for i := 0; i < probeCalls; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(start))/probeCalls)
	}
	return median(batches)
}
