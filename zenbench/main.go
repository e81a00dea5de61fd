// Command zenbench is the zen2ee benchmark: it drives the simulator, the
// shard scheduler, the daemon and the distributed worker pool through
// three workloads, checks every output against references computed by the
// same build, and prints one JSON result line.
//
//	zenbench --workload suite-cold|daemon-mix|dist-sweep --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of the chosen workload. --trace 1
// reports the per-layer metrics of every layer (see README.md), timed from
// the benchmark's own code around the program's public seams, plus the
// chosen workload's tracing overhead. Build and run it through run.sh.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark traffic shape. run measures it for
// p.budget and returns its outcome; with p.traced it also fills the
// per-layer metrics of the layers it exercises.
type workloadDef struct {
	name string
	run  func(p params) (*outcome, error)
}

var workloads = []workloadDef{
	{"suite-cold", runSuite},
	{"daemon-mix", runDaemon},
	{"dist-sweep", runDist},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// params are one pass's inputs.
type params struct {
	seed   uint64
	budget time.Duration
	traced bool
	// dir is scratch space inside the checkout (the daemon's disk tier).
	dir string
}

// outcome is what one pass measured.
type outcome struct {
	attempted, failed int
	failures          []string
	// e2e and layers map metric names to values; units live in the
	// catalogue.
	e2e, layers map[string]float64
	// digest is the SHA-256 over the pass's reference outputs, and
	// digestOf says what it covers.
	digest, digestOf string
	// notes are printed before the result line.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed operation; the first few messages are kept.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// merge folds another pass's counts and layer metrics into o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 8 {
			o.failures = append(o.failures, f)
		}
	}
	for k, v := range p.layers {
		o.layers[k] = v
	}
	o.notes = append(o.notes, p.notes...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type cliArgs struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (cliArgs, error) {
	var a cliArgs
	fs := flag.NewFlagSet("zenbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&a.workload, "workload", "", "workload name")
	fs.Uint64Var(&a.seed, "seed", 1, "workload seed")
	fs.IntVar(&a.seconds, "seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return a, err
	}
	if fs.NArg() > 0 {
		return a, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloadByName(a.workload); !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return a, fmt.Errorf("--workload must be one of %s, got %q", strings.Join(names, ", "), a.workload)
	}
	if a.seconds < 1 {
		return a, fmt.Errorf("--seconds must be at least 1, got %d", a.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return a, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	a.trace = *trace == 1
	return a, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	a, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "zenbench:", err)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "zenbench: scratch directory:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "zenbench: scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var out *outcome
	var want []metricDef
	if a.trace {
		out, err = tracedRun(a, dir)
		want = perLayer()
	} else {
		w, _ := workloadByName(a.workload)
		out, err = w.run(params{seed: a.seed, budget: time.Duration(a.seconds) * time.Second, dir: dir})
		want = endToEnd
	}
	if err != nil {
		fmt.Fprintln(stderr, "zenbench:", err)
		return 1
	}
	values := out.e2e
	if a.trace {
		values = out.layers
	}
	line, err := resultLine(out, values, want)
	if err != nil {
		fmt.Fprintln(stderr, "zenbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", hostFacts())
	fmt.Fprintf(stdout, "workload %s seed %d trace %t\n", a.workload, a.seed, a.trace)
	if out.digest != "" {
		fmt.Fprintf(stdout, "output sha256 %s (%s)\n", out.digest, out.digestOf)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	fmt.Fprintf(stdout, "error_ratio %g (%d failed of %d attempted)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	for _, d := range want {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON line. Every catalogue metric must be
// present and finite: a missing metric is a benchmark bug, not a zero.
func resultLine(o *outcome, values map[string]float64, want []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(want))
	for _, d := range want {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	if o.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	return string(b), err
}

// tracedRun measures every layer: a traced pass of each workload, the
// machine probe, and an untraced pass of the chosen workload whose wall
// time is the denominator of its tracing overhead. The budget is split
// evenly between the four timed passes.
func tracedRun(a cliArgs, dir string) (*outcome, error) {
	slice := time.Duration(a.seconds) * time.Second / 4
	out := newOutcome()
	var tracedWall float64
	for _, w := range workloads {
		p, err := w.run(params{seed: a.seed, budget: slice, traced: true, dir: dir})
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		out.merge(p)
		if w.name == a.workload {
			tracedWall = p.e2e["wall_s"]
			out.digest, out.digestOf = p.digest, p.digestOf
		}
	}
	m, err := machineProbe()
	if err != nil {
		return nil, fmt.Errorf("machine probe: %w", err)
	}
	out.merge(m)
	w, _ := workloadByName(a.workload)
	u, err := w.run(params{seed: a.seed, budget: slice, dir: dir})
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}
	out.merge(u)
	out.layers["obs.trace_overhead_ratio"] = tracedWall / u.e2e["wall_s"]
	return out, nil
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts identifies the machine and build a report came from, so a
// later reader can tell a regression from a different host.
func hostFacts() string {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"dirty":      dirty,
	})
	return string(b)
}

// digestDocs hashes documents in order, length-prefixed so boundaries
// cannot shift between them.
func digestDocs(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write([]byte(strconv.Itoa(len(d)) + ":"))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperStats summarizes the paper-vs-measured comparisons in canonical
// run or sweep documents. Each experiment counts once, whatever the number
// of its documents or comparisons: okRatio is the mean over experiments of
// the share of their comparisons within tolerance, and medDevPct the median
// over experiments of their median absolute relative deviation (in
// percent, over comparisons with a nonzero paper value). Weighting by
// experiment keeps the figures independent of how often a workload's seed
// happened to request each experiment. counts ("ok/total" over all
// comparisons) is what the traced run checks for exact repeats.
type paperStats struct {
	okRatio, medDevPct float64
	counts             string
}

func paperStatsOf(docs [][]byte) (paperStats, error) {
	type comparison struct {
		Paper    float64 `json:"paper"`
		Measured float64 `json:"measured"`
		OK       bool    `json:"ok"`
	}
	type runDoc struct {
		Results []struct {
			ID          string       `json:"id"`
			Comparisons []comparison `json:"comparisons"`
		} `json:"results"`
		Configs []struct {
			Report json.RawMessage `json:"report"`
		} `json:"configs"`
	}
	type tally struct {
		ok, total int
		devPct    []float64
	}
	perExp := map[string]*tally{}
	var visit func(b []byte) error
	visit = func(b []byte) error {
		var d runDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return err
		}
		for _, r := range d.Results {
			t := perExp[r.ID]
			if t == nil {
				t = &tally{}
				perExp[r.ID] = t
			}
			for _, c := range r.Comparisons {
				t.total++
				if c.OK {
					t.ok++
				}
				if c.Paper != 0 {
					t.devPct = append(t.devPct, 100*math.Abs(c.Measured-c.Paper)/math.Abs(c.Paper))
				}
			}
		}
		for _, s := range d.Configs {
			if err := visit(s.Report); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range docs {
		if err := visit(b); err != nil {
			return paperStats{}, fmt.Errorf("parsing a result document: %w", err)
		}
	}
	var okRatios, devs []float64
	ok, total := 0, 0
	for _, t := range perExp {
		ok += t.ok
		total += t.total
		if t.total > 0 {
			okRatios = append(okRatios, float64(t.ok)/float64(t.total))
		}
		if len(t.devPct) > 0 {
			devs = append(devs, median(t.devPct))
		}
	}
	return paperStats{
		okRatio:   sum(okRatios) / float64(len(okRatios)),
		medDevPct: median(devs),
		counts:    fmt.Sprintf("%d/%d", ok, total),
	}, nil
}

// setPaper records the paper metrics of a pass's reference documents.
func (o *outcome) setPaper(docs [][]byte) error {
	ps, err := paperStatsOf(docs)
	if err != nil {
		return err
	}
	if math.IsNaN(ps.okRatio) || math.IsNaN(ps.medDevPct) {
		return errors.New("the reference documents hold no paper comparisons")
	}
	o.e2e["paper_ok_ratio"] = ps.okRatio
	o.e2e["paper_dev_median_pct"] = ps.medDevPct
	o.note("paper checks: %s within tolerance over %d documents", ps.counts, len(docs))
	return nil
}

// setJobs records the job latency metrics.
func (o *outcome) setJobs(latMS []float64, measured time.Duration, what string) {
	t := tailOf(latMS)
	o.e2e["job_p50_ms"] = median(latMS)
	o.e2e["job_tail_ms"] = t.value
	o.e2e["jobs_per_s"] = float64(len(latMS)) / measured.Seconds()
	o.note("jobs are %s; job_tail_ms is the %s", what, t)
}
