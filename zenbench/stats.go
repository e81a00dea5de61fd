package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail value: a
// tail percentile read off fewer samples than this is noise.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs that still has at least tailBeyond
// samples above it. With too few samples for any such percentile, ok is
// false and value is the maximum.
type tail struct {
	value   float64
	pct     float64
	samples int
	ok      bool
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{value: math.NaN()}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tail{value: s[n-1], pct: 100, samples: n}
	}
	// s[n-1-tailBeyond] has exactly tailBeyond samples after it; the share
	// of samples at or below it is (n-tailBeyond)/n, floored to 0.1 so the
	// printed percentile never overstates how far out the value sits.
	pct := math.Floor(1000*float64(n-tailBeyond)/float64(n)) / 10
	return tail{value: s[n-1-tailBeyond], pct: pct, samples: n, ok: true}
}

func (t tail) String() string {
	if !t.ok {
		return fmt.Sprintf("max of %d samples (too few for a tail with %d beyond)", t.samples, tailBeyond)
	}
	return fmt.Sprintf("p%.1f of %d samples", t.pct, t.samples)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and is at most 64 letters, digits, '_', '.', '-'.
func validMetricName(name string) bool { return metricName.MatchString(name) }

// splitmix64 is the benchmark's own seed expander: every input the
// benchmark generates derives from the workload seed through it, so the
// program under test sees only generated values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small deterministic generator over splitmix64.
type rng struct{ state uint64 }

func newRNG(seed uint64, stream string) *rng {
	s := splitmix64(seed)
	for _, c := range []byte(stream) {
		s = splitmix64(s ^ uint64(c))
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// simSeed maps a generated value onto a simulation seed in [1, 1e6]: small
// enough to read in documents, never the zero value the daemon would
// silently replace with its default seed.
func simSeed(v uint64) uint64 { return v%1_000_000 + 1 }
