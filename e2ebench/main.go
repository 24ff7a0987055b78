// Command e2ebench is loopscope's end-to-end and per-layer benchmark.
// It generates each workload's capture from a seed, runs the two user
// journeys through the built programs — trace file → `loopdetect
// -json` report, and capture → loopscoped → loopscope-agg fleet
// cluster — checks every output against the capture's loop script and
// against the other paths, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds the
// programs and this harness first:
//
//	bash e2ebench/run.sh --workload trace-sparse --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh steady --workload fleet-tail --runs 10
//
// With --trace 1 the run calls each layer's public functions from this
// harness under spans and reports per-layer metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricUnits names every metric the benchmark reports and its unit.
var metricUnits = map[string]string{
	"setup_s":          "s",
	"records_per_s":    "1/s",
	"records_per_s_w1": "1/s",
	"cpu_us_per_rec":   "us",
	"peak_rss_mb":      "MB",
	"allocs_per_rec":   "count",
	"emit_lag_p50_s":   "s",

	"trace.read_ns_per_rec":            "ns",
	"trace.read_allocs_per_rec":        "count",
	"trace.tail_ns_per_rec":            "ns",
	"core.observe_ns_per_rec":          "ns",
	"core.observe_allocs_per_rec":      "count",
	"core.parallel_observe_ns_per_rec": "ns",
	"core.shard_skew":                  "ratio",
	"core.finish_ms":                   "ms",
	"core.validated_share":             "ratio",
	"core.session_ns_per_rec":          "ns",
	"core.session_allocs_per_rec":      "count",
	"core.live_builders_peak":          "count",
	"analysis.analyze_ms":              "ms",
	"analytics.record_us_per_loop":     "us",
	"serve.journal_publish_us":         "us",
	"agg.ingest_us_per_obs":            "us",
	"agg.replay_ms":                    "ms",
	"fleet.detect_cluster_p50_ms":      "ms",
	"fleet.detect_cluster_p90_ms":      "ms",
	"fleet.publish_journal_p50_us":     "us",
	"loopdetect.read_s":                "s",
	"loopdetect.detect_s":              "s",
	"loopdetect.analyze_s":             "s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(runOnce(os.Args[1:]))
}

func runOnce(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's capture is generated from")
	seconds := fs.Int("seconds", 20, "how long the measured passes run")
	traced := fs.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	bin := fs.String("bin", "", "directory holding the built loopdetect, loopscoped and loopscope-agg")
	work := fs.String("work", "", "scratch directory for captures, journals and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds >= 1, --trace 0|1, -bin and -work\n", workloadNames())
		return 2
	}
	for _, p := range []string{"loopdetect", "loopscoped", "loopscope-agg"} {
		if _, err := os.Stat(filepath.Join(*bin, p)); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: program not built: %v\n", err)
			return 1
		}
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, *seed))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	c, err := generate(w, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: generate:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %d records, %d scripted loops\n", w.name, *seed, c.records, len(c.script))
	b := &bench{w: w, c: c, dir: dir, bin: *bin, seconds: time.Duration(*seconds) * time.Second}

	var nums map[string]float64
	switch {
	case *traced == 1:
		spans := filepath.Join(*work, "spans", fmt.Sprintf("%s-%d.json", w.name, *seed))
		nums, err = b.runTraced(spans)
	case w.fleet:
		nums, err = b.runFleetJourney()
	default:
		nums, err = b.runTraceJourney()
	}
	if errors.Is(err, errCheck) {
		b.fail("%v", err)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}

	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for k, v := range nums {
		res.Metrics[k] = metric{Value: v, Unit: metricUnits[k]}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// runTraced is the per-layer run. It times the two CLI journeys once,
// reading loopdetect's own stage timings and the aggregator's latency
// table, then calls each layer of both journeys in process under
// spans, and once more untraced so the tracing overhead shows.
func (b *bench) runTraced(spansPath string) (map[string]float64, error) {
	nums := map[string]float64{}
	t := newTracer()

	freeMemory()
	root := t.begin("journey.cli", -1)
	sp := t.begin("cli.loopdetect", root)
	_, out, err := b.loopdetect("default.json")
	t.end(sp)
	if err != nil {
		return nil, err
	}
	b.judge(out, "traced report")
	nums["loopdetect.read_s"] = out.stageSeconds("read")
	nums["loopdetect.detect_s"] = out.stageSeconds("detect")
	nums["loopdetect.analyze_s"] = out.stageSeconds("analyze")
	var batch *ldOutput
	var want []string
	if b.w.fleet {
		batch = out
		want, _ = fleetExpectation(out)
	}
	sp = t.begin("cli.fleet", root)
	fp, err := b.fleetPass(0, batch, want)
	t.end(sp)
	t.end(root)
	if err != nil {
		return nil, err
	}
	for _, s := range fp.latency.Segments {
		switch s.Segment {
		case "detect_cluster":
			nums["fleet.detect_cluster_p50_ms"] = float64(s.Quantiles["p50"]) / 1e6
			nums["fleet.detect_cluster_p90_ms"] = float64(s.Quantiles["p90"]) / 1e6
		case "publish_journal":
			nums["fleet.publish_journal_p50_us"] = float64(s.Quantiles["p50"]) / 1e3
		}
	}

	untraced := map[string]time.Duration{}
	journeys := []struct {
		root string
		run  func(*layerRun) (time.Duration, error)
	}{
		{"journey.trace", func(l *layerRun) (time.Duration, error) { return traceLayers(l, b.c.path) }},
		{"journey.fleet", func(l *layerRun) (time.Duration, error) { return fleetLayers(l, b.c.path, b.dir) }},
	}
	for _, j := range journeys {
		freeMemory()
		if _, err := j.run(&layerRun{t: t, nums: nums}); err != nil {
			return nil, err
		}
		freeMemory()
		wall, err := j.run(&layerRun{})
		if err != nil {
			return nil, err
		}
		untraced[j.root] = wall
	}
	t.printSelfTimes(os.Stdout, untraced)
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := t.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", spansPath)
	return nums, nil
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
