package main

import (
	"fmt"
	"strings"

	"zen2ee/internal/core"
)

// The daemon-mix request generator. It is a pure function of the workload
// seed: the same seed yields the same request sequence, whatever the
// daemon does with it. Requests come in rounds of roundSize; a request may
// only refer back to specs and configurations introduced in earlier
// rounds, so a "hit" is a repeat of a spec whose first submission has
// finished — never a race with the other client.

// requestClasses are the four traffic classes, in catalogue order.
var requestClasses = []string{"hit", "overlap", "cold", "sweep"}

// coldPool holds the experiments that run in tens of milliseconds at the
// cold scales: cold and sweep requests draw from it.
var coldPool = []string{"fig1", "sec5a", "fig3", "sec5b", "fig4", "fig6", "fig7", "sec6acpi", "sec6b", "fig8", "sec7u"}

var coldScales = []float64{0.1, 0.2}

// roundMix is one round's class counts after the all-cold set-up round, in
// requestClasses order: 45/25/20/10 percent. Fixed counts (shuffled within
// the round) keep every round the same amount of work, so per-round wall
// time is comparable across seeds; and the job median falls inside the
// overlap class instead of on the edge between hits and overlaps, where a
// seed's share of hits would decide which of the two it reads.
var roundMix = []int{9, 5, 4, 2}

// roundSize is the number of requests per round.
const roundSize = 20

// request is one generated submission.
type request struct {
	class string
	// ids are in paper order; configs has one entry for a job and two for
	// a sweep.
	ids     []string
	configs []core.Config
}

func (q request) sweep() bool { return len(q.configs) > 1 }

// key identifies the spec: requests with equal keys are the same job.
func (q request) key() string {
	var b strings.Builder
	if q.sweep() {
		b.WriteString("sweep ")
	} else {
		b.WriteString("job ")
	}
	b.WriteString(strings.Join(q.ids, ","))
	for _, c := range q.configs {
		fmt.Fprintf(&b, " %g/%d", c.Scale, c.Seed)
	}
	return b.String()
}

// seenConfig is a configuration some cold or sweep request ran, with the
// experiments it ran there (whose shards the daemon has memoized).
type seenConfig struct {
	cfg core.Config
	ids []string
}

type generator struct {
	r         *rng
	n         int
	nextSeed  uint64
	configs   []seenConfig // introduced in earlier rounds
	specs     []request    // distinct specs of earlier rounds
	newCfgs   []seenConfig // introduced in the current round
	newSpecs  []request
	requested map[string]bool
	classes   []string // the current round's remaining classes
}

func newGenerator(seed uint64) *generator {
	r := newRNG(seed, "daemon-mix")
	return &generator{r: r, nextSeed: simSeed(r.next()), requested: map[string]bool{}}
}

// next returns the next request. Round 0 is all cold: it primes the daemon
// during set-up, so every later class has something to refer to.
func (g *generator) next() request {
	if g.n > 0 && g.n%roundSize == 0 {
		g.configs = append(g.configs, g.newCfgs...)
		g.specs = append(g.specs, g.newSpecs...)
		g.newCfgs, g.newSpecs = nil, nil
		g.classes = g.classes[:0]
		for i, c := range requestClasses {
			for j := 0; j < roundMix[i]; j++ {
				g.classes = append(g.classes, c)
			}
		}
		for i := len(g.classes) - 1; i > 0; i-- {
			j := g.r.intn(i + 1)
			g.classes[i], g.classes[j] = g.classes[j], g.classes[i]
		}
	}
	g.n++
	if len(g.configs) == 0 {
		return g.add(g.cold())
	}
	class := g.classes[0]
	g.classes = g.classes[1:]
	switch class {
	case "hit":
		q := g.specs[g.r.intn(len(g.specs))]
		q.class = "hit"
		return q
	case "overlap":
		if q, ok := g.overlap(); ok {
			return g.add(q)
		}
		return g.add(g.cold())
	case "cold":
		return g.add(g.cold())
	default:
		return g.add(g.sweepReq())
	}
}

// add records a new spec and returns it.
func (g *generator) add(q request) request {
	g.requested[q.key()] = true
	g.newSpecs = append(g.newSpecs, q)
	return q
}

func (g *generator) freshSeed() uint64 {
	g.nextSeed++
	return g.nextSeed
}

// cold asks for 2 or 3 cheap experiments at a new seed.
func (g *generator) cold() request {
	k := 2 + g.r.intn(2)
	pick := map[string]bool{}
	for len(pick) < k {
		pick[coldPool[g.r.intn(len(coldPool))]] = true
	}
	cfg := core.Config{Scale: coldScales[g.r.intn(len(coldScales))], Seed: g.freshSeed()}
	q := request{class: "cold", ids: paperOrder(pick), configs: []core.Config{cfg}}
	g.newCfgs = append(g.newCfgs, seenConfig{cfg, q.ids})
	return q
}

// overlap asks for a proper subset of the experiments an earlier request
// ran at the same configuration: every shard is memoized, so the daemon
// only reduces and marshals.
func (g *generator) overlap() (request, bool) {
	for try := 0; try < 8; try++ {
		c := g.configs[g.r.intn(len(g.configs))]
		k := len(c.ids)
		mask := 1 + g.r.intn(1<<k-2) // non-empty, not all
		pick := map[string]bool{}
		for i, id := range c.ids {
			if mask&(1<<i) != 0 {
				pick[id] = true
			}
		}
		q := request{class: "overlap", ids: paperOrder(pick), configs: []core.Config{c.cfg}}
		if !g.requested[q.key()] {
			return q, true
		}
	}
	return request{}, false
}

// sweepReq asks for an earlier configuration (served from the daemon's
// per-configuration cache) plus a new seed at the same scale.
func (g *generator) sweepReq() request {
	c := g.configs[g.r.intn(len(g.configs))]
	fresh := core.Config{Scale: c.cfg.Scale, Seed: g.freshSeed()}
	g.newCfgs = append(g.newCfgs, seenConfig{fresh, c.ids})
	return request{class: "sweep", ids: c.ids, configs: []core.Config{c.cfg, fresh}}
}

// paperOrder lists a set of experiment IDs in registry (paper) order.
func paperOrder(set map[string]bool) []string {
	var out []string
	for _, e := range core.Registry() {
		if set[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}
