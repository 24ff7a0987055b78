package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// workload is the make-up of one generated capture. Everything random
// in the capture is drawn from the run's seed; the fields below fix its
// shape, so two seeds give captures of the same size and loop density.
type workload struct {
	name string
	// fleet selects the daemon → aggregator journey instead of the
	// loopdetect journey.
	fleet bool

	duration time.Duration
	pps      float64
	prefixes int
	loops    int
	// Loop prefixes are drawn from popularity ranks [rankLo, rankHi)
	// of the Zipf-ranked destination list, which pins the looped share
	// of the capture across seeds.
	rankLo, rankHi int
	// Loop durations are uniform in [durMin, durMax].
	durMin, durMax time.Duration
	// Every loop ends before lastEnd: the fleet capture leaves more
	// than a merge window of loop-free traffic after the last loop, so
	// the daemon finalizes every loop while it streams rather than at
	// shutdown.
	lastEnd time.Duration
}

// workloads are the benchmark's inputs. Each is chosen to stress a
// different set of layers; README.md records why.
var workloads = []workload{
	{
		name: "trace-sparse", duration: 7 * time.Minute, pps: 5000,
		prefixes: 256, loops: 8, rankLo: 24, rankHi: 80,
		durMin: 3 * time.Second, durMax: 6 * time.Second,
		lastEnd: 6 * time.Minute,
	},
	{
		name: "trace-loopy", duration: 4 * time.Minute, pps: 7000,
		prefixes: 4096, loops: 1000, rankLo: 8, rankHi: 640,
		durMin: 2 * time.Second, durMax: 12 * time.Second,
		lastEnd: 230 * time.Second,
	},
	{
		name: "fleet-tail", fleet: true, duration: 170 * time.Second, pps: 5000,
		prefixes: 1024, loops: 300, rankLo: 8, rankHi: 1024,
		durMin: 2 * time.Second, durMax: 8 * time.Second,
		lastEnd: 100 * time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// linkName is the capture's link name, also the daemon's source name.
const linkName = "bench"

// capture is one generated input: the trace file, its header-only twin
// (for set-up timing), and the loop script with the evidence the
// oracle counted while the trace was written.
type capture struct {
	path, emptyPath string
	records         int
	script          []scriptedLoop
}

// scriptedLoop is one loop of the script plus the packets the
// generator emitted towards its prefix inside its window, grouped into
// replica streams by masked packet identity.
type scriptedLoop struct {
	spec    traffic.LoopSpec
	streams map[string]int // masked snapshot -> replicas
}

// qualifying reports whether the loop left enough evidence that the
// method must find it: at least one replica stream of minReplicas.
func (l *scriptedLoop) qualifying(minReplicas int) bool {
	for _, n := range l.streams {
		if n >= minReplicas {
			return true
		}
	}
	return false
}

// generate builds the workload's capture from seed the way tracegen
// does (traffic.SynthesizeStream over a loop script) and writes it to
// dir. The script is kept for the oracle.
func generate(w workload, seed uint64, dir string) (*capture, error) {
	rng := stats.NewRNG(seed)
	dests := make([]routing.Prefix, 0, w.prefixes)
	for i := 0; i < w.prefixes; i++ {
		dests = append(dests, routing.NewPrefix(
			packet.AddrFrom(byte(192+i%16), byte(10+i/256), byte(i%256), 0), 24))
	}
	cfg := traffic.SynthConfig{
		Link:             linkName,
		Duration:         w.duration,
		PacketsPerSecond: w.pps,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3,
		HopsMax:          10,
	}
	deltas := []int{2, 2, 2, 2, 3, 3, 4, 6}
	span := int64(w.lastEnd - w.durMax)
	for i := 0; i < w.loops; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[w.rankLo+rng.Intn(w.rankHi-w.rankLo)],
			Start:      time.Duration(rng.Int63n(span)),
			Duration:   w.durMin + time.Duration(rng.Int63n(int64(w.durMax-w.durMin)+1)),
			TTLDelta:   deltas[rng.Intn(len(deltas))],
			Revolution: time.Duration(1500+rng.Intn(6000)) * time.Microsecond,
		})
	}

	c := &capture{path: dir + "/capture.lspt", emptyPath: dir + "/empty.lspt"}
	c.script = make([]scriptedLoop, len(cfg.Loops))
	byPrefix := make(map[routing.Prefix][]*scriptedLoop)
	for i, spec := range cfg.Loops {
		l := &c.script[i]
		*l = scriptedLoop{spec: spec, streams: make(map[string]int)}
		byPrefix[spec.Prefix] = append(byPrefix[spec.Prefix], l)
	}

	meta := trace.Meta{Link: linkName, SnapLen: trace.DefaultSnapLen, Start: time.Unix(0, 0)}
	if err := writeTrace(c.emptyPath, meta, nil); err != nil {
		return nil, err
	}
	var werr error
	err := writeTrace(c.path, meta, func(tw *trace.Writer) {
		traffic.SynthesizeStream(cfg, rng, func(r trace.Record) {
			if werr != nil {
				return
			}
			werr = tw.Write(r)
			c.records++
			if len(r.Data) < 20 {
				return
			}
			pfx := routing.NewPrefix(packet.AddrFrom(r.Data[16], r.Data[17], r.Data[18], 0), 24)
			for _, l := range byPrefix[pfx] {
				if r.Time >= l.spec.Start && r.Time < l.spec.Start+l.spec.Duration {
					l.streams[maskedKey(r.Data)]++
				}
			}
		})
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// maskedKey is a packet's identity across loop revolutions: its
// snapshot with the TTL and the header checksum zeroed.
func maskedKey(data []byte) string {
	b := []byte(string(data))
	b[8], b[10], b[11] = 0, 0, 0
	return string(b)
}

// writeTrace writes a native trace: the header, then whatever body
// emits through the writer.
func writeTrace(path string, meta trace.Meta, body func(*trace.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	tw, err := trace.NewWriter(bw, meta)
	if err != nil {
		f.Close()
		return err
	}
	if body != nil {
		body(tw)
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	// Finish write-back now rather than during the first measured pass.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	return f.Close()
}
