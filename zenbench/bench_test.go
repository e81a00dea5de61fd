package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	got := tailOf(xs)
	if !got.ok || got.value != 90 || got.pct != 90 || got.samples != 100 {
		t.Fatalf("tailOf(1..100) = %+v, want value 90 at p90.0 of 100", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail value, want %d", beyond, tailBeyond)
	}

	if got := tailOf([]float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}); !got.ok || got.value != 1 || got.pct != 9 {
		t.Fatalf("tailOf(11 samples) = %+v, want the minimum at p9.0", got)
	}
	if got := tailOf([]float64{5, 1, 9}); got.ok || got.value != 9 {
		t.Fatalf("tailOf(3 samples) = %+v, want the maximum flagged as no tail", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric names: each is legal,
// used once, and BENCHMARK.json declares exactly the catalogue's names,
// units and directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, declared []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(declared) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalogue has %d", kind, len(declared), len(want))
		}
		for i, d := range want {
			if !validMetricName(d.name) {
				t.Errorf("%s: invalid metric name %q", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %q used twice", kind, d.name)
			}
			seen[d.name] = true
			if i < len(declared) {
				if got := (metricDef{declared[i].Name, declared[i].Unit, declared[i].Better}); got != d {
					t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", kind, i, got, d)
				}
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"wall_s", "core.exp.fig9.ms", "machine.steady_us_per_sim_ms.64", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "has space", "slash/name", "uni€"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestInjectedMismatchRaisesErrorRatio feeds the daemon-mix output checks a
// reference that disagrees on one spec and a repeat that disagrees with
// its first reply: both must count as failures.
func TestInjectedMismatchRaisesErrorRatio(t *testing.T) {
	g := newGenerator(7)
	a, b := g.next(), g.next()
	replies := []reply{{q: a, doc: []byte("A")}, {q: b, doc: []byte("B")}, {q: a, doc: []byte("A")}}
	reference := func(q request) ([]byte, error) {
		if q.key() == a.key() {
			return []byte("A"), nil
		}
		return []byte("B"), nil
	}

	clean := newOutcome()
	if docs := checkReplies(clean, replies, reference); clean.failed != 0 || len(docs) != 2 {
		t.Fatalf("matching outputs: %d failures (%v), %d documents", clean.failed, clean.failures, len(docs))
	}

	wrongRef := newOutcome()
	checkReplies(wrongRef, replies, func(q request) ([]byte, error) {
		if q.key() == b.key() {
			return []byte("B'"), nil
		}
		return reference(q)
	})
	if wrongRef.failed != 1 {
		t.Fatalf("a first reply differing from the local run: %d failures, want 1", wrongRef.failed)
	}

	wrongRepeat := newOutcome()
	checkReplies(wrongRepeat, append(replies, reply{q: b, doc: []byte("b")}), reference)
	if wrongRepeat.failed != 1 {
		t.Fatalf("a repeat differing from its first reply: %d failures, want 1", wrongRepeat.failed)
	}

	failedRun := newOutcome()
	checkReplies(failedRun, replies, func(q request) ([]byte, error) { return nil, errors.New("boom") })
	if failedRun.failed != 2 {
		t.Fatalf("failing local runs: %d failures, want 2", failedRun.failed)
	}
	failedRun.attempted = 4
	line, err := resultLine(failedRun, map[string]float64{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != 4 {
		t.Fatalf("result line %s: want correct=false, 2 of 4 failed", line)
	}
}

// TestGeneratorIsPureFunctionOfSeed checks that the request sequence
// depends on the seed alone, and the round rules it promises.
func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	const n = 10 * roundSize
	seq := func(seed uint64) []request {
		g := newGenerator(seed)
		out := make([]request, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with seed 42 produced different sequences")
	}
	if reflect.DeepEqual(a, seq(43)) {
		t.Fatal("seeds 42 and 43 produced the same sequence")
	}

	introduced := map[string]int{} // spec key → round of first appearance
	for i, q := range a {
		r := i / roundSize
		if r == 0 && q.class != "cold" {
			t.Fatalf("request %d of the set-up round is %s, want cold", i, q.class)
		}
		first, seen := introduced[q.key()]
		switch {
		case q.class == "hit" && (!seen || first >= r):
			t.Fatalf("request %d is a hit on a spec not introduced in an earlier round", i)
		case q.class != "hit" && seen:
			t.Fatalf("request %d (%s) repeats a spec but is not a hit", i, q.class)
		case !seen:
			introduced[q.key()] = r
		}
		if q.configs[0].Seed == 0 {
			t.Fatalf("request %d uses seed 0, which the daemon replaces with its default", i)
		}
	}
	for r := 1; r < n/roundSize; r++ {
		counts := map[string]int{}
		for _, q := range a[r*roundSize : (r+1)*roundSize] {
			counts[q.class]++
		}
		for i, c := range requestClasses {
			// An overlap with no fresh subset left falls back to cold.
			if c != "overlap" && c != "cold" && counts[c] != roundMix[i] {
				t.Errorf("round %d has %d %s requests, want %d", r, counts[c], c, roundMix[i])
			}
		}
	}
}

func TestHistogramMedian(t *testing.T) {
	before := map[string]float64{}
	after := map[string]float64{
		`h_bucket{le="0.001"}`: 2,
		`h_bucket{le="0.01"}`:  6,
		`h_bucket{le="+Inf"}`:  8,
		`h_count`:              8,
	}
	// 4 of 8 observations lie at or below the median: 2 in the first
	// bucket, so the median is halfway through the second.
	if got, want := histogramMedian(before, after, "h"), 0.001+0.009*0.5; got-want > 1e-12 || want-got > 1e-12 {
		t.Fatalf("histogramMedian = %v, want %v", got, want)
	}
}
