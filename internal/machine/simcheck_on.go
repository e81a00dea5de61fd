//go:build simcheck

package machine

import (
	"fmt"

	"zen2ee/internal/power"
	"zen2ee/internal/rapl"
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
	}
	for t := 0; t < m.Top.NumThreads(); t++ {
		cyc, ins, mpf := m.deriveThread(soc.ThreadID(t))
		if cyc != m.thrCyc[t] || ins != m.thrIns[t] || mpf != m.thrMpf[t] {
			panic(fmt.Sprintf(
				"simcheck: thread %d stale at %v: cached (%g, %g, %g) vs full (%g, %g, %g)",
				t, m.Eng.Now(), m.thrCyc[t], m.thrIns[t], m.thrMpf[t], cyc, ins, mpf))
		}
	}
}

// verifyActivity asserts that the refresh caches the SMU reads for a core
// agree bit-exactly with a direct derivation from the C-state and DVFS
// models. A panic here means the SMU ran while a mutation was still
// waiting for its refresh.
func (m *Machine) verifyActivity(core soc.CoreID) {
	n := m.CStates.ActiveThreads(core)
	eff := m.DVFS.EffectiveMHz(core)
	var amps float64
	if n > 0 {
		k, _ := m.coreKernel(core)
		amps = k.EDCWeight(n) * (eff / 1000) * m.DVFS.VoltageAt(eff)
	}
	cached := cachedCurrentAmps(&m.inputsBuf[core])
	if (n > 0) != (m.inputsBuf[core].ActiveThreads > 0) || eff != m.effMHzBuf[core] || amps != cached {
		panic(fmt.Sprintf(
			"simcheck: SMU read of core %d stale at %v: cached (%d active, %g MHz, %g A) vs direct (%d active, %g MHz, %g A)",
			core, m.Eng.Now(), m.inputsBuf[core].ActiveThreads, m.effMHzBuf[core], cached, n, eff, amps))
	}
}
