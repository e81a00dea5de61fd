//go:build simcheck

package machine

import (
	"fmt"

	"zen2ee/internal/power"
	"zen2ee/internal/rapl"
	"zen2ee/internal/smu"
	"zen2ee/internal/soc"
)

// verifyRefresh recomputes every core's and thread's derived state from
// scratch and asserts bit-exact agreement with the incrementally maintained
// caches — the debug mode backing the dirty-set refresh. A panic here means
// a mutation path failed to mark its core (or the core's CCX) dirty.
func (m *Machine) verifyRefresh(raplCfg rapl.Config) {
	for c := range m.Top.Cores {
		var ci power.CoreInput
		eff, w := m.deriveCore(soc.CoreID(c), raplCfg, &ci)
		if ci != m.inputsBuf[c] || eff != m.effMHzBuf[c] || w != m.raplWBuf[c] {
			panic(fmt.Sprintf(
				"simcheck: core %d stale at %v: cached (%+v, %g MHz, %g W) vs full (%+v, %g MHz, %g W)",
				c, m.Eng.Now(), m.inputsBuf[c], m.effMHzBuf[c], m.raplWBuf[c], ci, eff, w))
		}
		for _, t := range m.Top.Cores[c].Threads {
			cyc, ins, mpf := m.deriveThread(t, eff)
			if cyc != m.thrCyc[t] || ins != m.thrIns[t] || mpf != m.thrMpf[t] {
				panic(fmt.Sprintf(
					"simcheck: thread %d stale at %v: cached (%g, %g, %g) vs full (%g, %g, %g)",
					t, m.Eng.Now(), m.thrCyc[t], m.thrIns[t], m.thrMpf[t], cyc, ins, mpf))
			}
		}
	}
}

// verifyPackageActivity asserts that the package totals the SMU reads agree
// bit-exactly with totals derived directly from the C-state and DVFS
// models, over the package's cores in topology order. A panic here means
// the SMU ran while a mutation was still waiting for its refresh.
func (m *Machine) verifyPackageActivity(pkg soc.PackageID) {
	var want smu.PackageActivity
	for c := range m.Top.Cores {
		core := soc.CoreID(c)
		n := m.CStates.ActiveThreads(core)
		if m.Top.PackageOfCore(core) != pkg || n == 0 {
			continue
		}
		eff := m.DVFS.EffectiveMHz(core)
		k, _ := m.coreKernel(core)
		want.Active = true
		want.Amps += k.EDCWeight(n) * (eff / 1000) * m.DVFS.VoltageAt(eff)
		if eff > want.MaxMHz {
			want.MaxMHz = eff
		}
		if f := m.DVFS.UncappedMHz(core); f > want.MaxUncappedMHz {
			want.MaxUncappedMHz = f
		}
	}
	if got := m.pkgAct[pkg]; got != want {
		panic(fmt.Sprintf("simcheck: SMU read of package %d stale at %v: cached %+v vs direct %+v",
			pkg, m.Eng.Now(), got, want))
	}
}

// verifyCoreActive asserts that the cached activity the boost ladder reads
// for a core agrees with the C-state model.
func (m *Machine) verifyCoreActive(core soc.CoreID) {
	if n := m.CStates.ActiveThreads(core); (n > 0) != (m.inputsBuf[core].ActiveThreads > 0) {
		panic(fmt.Sprintf("simcheck: SMU read of core %d stale at %v: cached %d active vs direct %d",
			core, m.Eng.Now(), m.inputsBuf[core].ActiveThreads, n))
	}
}
