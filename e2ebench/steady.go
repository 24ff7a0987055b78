package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs one workload several times, each with the next seed, and
// prints each metric's median and interquartile spread (as a share of
// the median) next to the bound BENCHMARK.json sets for it. The bounds
// are derived from these figures: a spread must stay under a third of
// its metric's bound.
func steady(args []string) int {
	fs := flag.NewFlagSet("e2ebench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	firstSeed := fs.Uint64("first-seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Int("seconds", 20, "--seconds for each run")
	bin := fs.String("bin", "", "passed through to each run")
	work := fs.String("work", "", "passed through to each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(*name); !ok || *runs < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench steady: need --workload (one of %s) and --runs >= 1\n", workloadNames())
		return 2
	}
	bounds := readBounds("BENCHMARK.json")

	values := map[string][]float64{}
	var failedShare []float64
	for i := 0; i < *runs; i++ {
		seed := *firstSeed + uint64(i)
		cmd := exec.Command(os.Args[0], "-bin", *bin, "-work", *work, "--workload", *name,
			"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(*seconds),
			"--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: seed %d: %v\n", seed, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "e2ebench steady: seed %d: no correct result line (%v)\n", seed, err)
			return 1
		}
		failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("seed %d: %s\n", seed, lastLine(out))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}

	var names []string
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("\n%s over %d runs (seeds %d..%d)\n", *name, *runs, *firstSeed, *firstSeed+uint64(*runs)-1)
	fmt.Printf("%-34s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, k := range names {
		v := values[k]
		q := quartiles(v)
		med := median(v)
		line := fmt.Sprintf("%-34s %14.6g %14.6g %14.6g %7.2f%%", k, med, q[0], q[2], 100*(q[2]-q[0])/med)
		if b, ok := bounds[k]; ok {
			line += fmt.Sprintf(" %7.0f%%", 100*b)
			if (q[2]-q[0])/med > b/3 {
				line += "  spread above a third of the bound"
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("failed share per run: %v\n", failedShare)
	return 0
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose
// default is the exclusive method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q
}

// readBounds maps each end-to-end metric of BENCHMARK.json to its
// bound; a missing file yields no bounds.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
