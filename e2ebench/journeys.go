package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"loopscope/pkg/loopscope"
)

// Set-up is sampled in batches of setupBatch before every pass, and
// topped up to setupMin samples after the last, so that one burst of
// contention cannot set the figure; the run reports their lower
// quartile. w1Runs is how many `-workers 1` baseline runs the fleet
// journey makes after its passes.
const (
	setupBatch = 16
	setupMin   = 64
	w1Runs     = 5
)

// bench is one run's context: the built programs, the capture, and the
// tallies that become the result line.
type bench struct {
	w       workload
	c       *capture
	dir     string
	bin     string
	seconds time.Duration

	// session is the in-process streaming run over the capture, which
	// the daemon's emission-lag histogram is checked against.
	session *sessionRun

	setup             []float64 // set-up samples, seconds
	attempted, failed int64
	problems          []string
}

func (b *bench) prog(name string) string { return filepath.Join(b.bin, name) }

// fail records a wrong output; the run is then reported incorrect.
func (b *bench) fail(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// count records attempted operations and how many of them failed.
func (b *bench) count(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// judge applies the loop-script oracle to one report and tallies its
// operations: records read against records lost in decoding, scripted
// loops found against missed.
func (b *bench) judge(out *ldOutput, what string) {
	v := checkReport(out, b.c, detectorConfig)
	lost := b.c.records - out.Packets
	if lost < 0 {
		lost = -lost
	}
	b.count(b.c.records+v.expected, lost+v.missed)
	for _, p := range v.problems {
		b.fail("%s: %s", what, p)
	}
}

// loopdetect runs `loopdetect -json` with extra flags over the capture.
func (b *bench) loopdetect(outName string, flags ...string) (procStats, *ldOutput, error) {
	outPath := filepath.Join(b.dir, outName)
	st, err := runProgram(outPath, b.prog("loopdetect"), append(append([]string{"-json"}, flags...), b.c.path)...)
	if err != nil {
		return st, nil, err
	}
	out, err := readLoopdetect(outPath)
	return st, out, err
}

// freeMemory returns the harness's heap to the OS before a program
// run, so in-process work does not crowd the measured processes.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runTraceJourney measures trace file → `loopdetect -json` report.
// Each pass runs the default engine and -workers 1 over the capture,
// holds both reports against the oracle and requires them to agree
// with each other and with the first pass.
func (b *bench) runTraceJourney() (map[string]float64, error) {
	recs := float64(b.c.records)
	var rps, rpsW1, cpu, rss []float64
	var first *ldOutput
	deadline := time.Now().Add(b.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := b.sampleSetup(setupBatch); err != nil {
			return nil, err
		}
		st, out, err := b.loopdetect("default.json")
		if err != nil {
			return nil, err
		}
		st1, out1, err := b.loopdetect("w1.json", "-workers", "1")
		if err != nil {
			return nil, err
		}
		b.judge(out, "default engine")
		b.judge(out1, "-workers 1")
		if !sameDetection(out, out1) {
			b.fail("pass %d: default and -workers 1 reports differ", pass)
		}
		if first == nil {
			first = out
			fmt.Printf("report: %d streams, %d loops, %d looped packets (%.1f%% of records)\n",
				len(out.Streams), len(out.Loops), out.LoopedPackets, 100*float64(out.LoopedPackets)/recs)
		} else if !sameDetection(first, out) {
			b.fail("pass %d: report differs from pass 0", pass)
		}
		fmt.Printf("pass %d: default %.3fs (cpu %.3fs, rss %d MiB), -workers 1 %.3fs\n",
			pass, st.wall.Seconds(), st.cpu.Seconds(), st.rssKiB>>10, st1.wall.Seconds())
		rps = append(rps, recs/st.wall.Seconds())
		rpsW1 = append(rpsW1, recs/st1.wall.Seconds())
		cpu = append(cpu, float64(st.cpu.Microseconds())/recs)
		rss = append(rss, float64(st.rssKiB)/1024)
	}
	setup, err := b.setupFigure()
	if err != nil {
		return nil, err
	}
	// Emission lag belongs to the fleet journey, but every run reports
	// every end-to-end metric; the session pass runs after the timed
	// passes.
	allocs, lag, err := b.inProcess()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":          setup,
		"records_per_s":    median(rps),
		"records_per_s_w1": median(rpsW1),
		"cpu_us_per_rec":   median(cpu),
		"peak_rss_mb":      median(rss),
		"allocs_per_rec":   allocs,
		"emit_lag_p50_s":   lag,
	}, nil
}

// sampleSetup takes n more set-up samples. On the trace workloads one
// sample is `loopdetect -json` over the header-only capture: process
// start, open, an empty detection and the report. On fleet-tail it is
// the launch of both fleet programs until both answer health.
func (b *bench) sampleSetup(n int) error {
	for i := 0; i < n; i++ {
		var took time.Duration
		if b.w.fleet {
			var err error
			took, err = b.fleetSetupSample(filepath.Join(b.dir, fmt.Sprintf("setup-%d", len(b.setup))))
			if err != nil {
				return err
			}
		} else {
			st, err := runProgram("", b.prog("loopdetect"), "-json", b.c.emptyPath)
			if err != nil {
				return err
			}
			took = st.wall
		}
		b.setup = append(b.setup, took.Seconds())
	}
	return nil
}

// setupFigure tops the set-up samples up to setupMin and returns their
// lower quartile.
func (b *bench) setupFigure() (float64, error) {
	if err := b.sampleSetup(setupMin - len(b.setup)); err != nil {
		return 0, err
	}
	q := quartiles(b.setup)
	fmt.Printf("set-up: %d samples, lower quartile %.3f ms, median %.3f ms, upper quartile %.3f ms\n",
		len(b.setup), 1e3*q[0], 1e3*q[1], 1e3*q[2])
	return q[0], nil
}

// inProcess measures the two deterministic metrics in the benchmark's
// own process: heap allocations per record of loopdetect's public
// calls, and the streaming engine's median emission lag.
func (b *bench) inProcess() (allocs, lag float64, err error) {
	freeMemory()
	allocs, recs, err := loopdetectAllocs(b.c.path)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	sr, err := runSession(recs)
	if err != nil {
		return 0, 0, err
	}
	b.session = sr
	freeMemory()
	return allocs, sr.emitLagP50(), nil
}

// runFleetJourney measures capture → loopscoped (tail, journal,
// webhook) → loopscope-agg (journal) → fleet cluster set. The batch
// report over the same capture, checked against the oracle, is the
// event set the daemon must journal and, under the aggregator's join
// rule, the fleet loop set every pass must reach.
func (b *bench) runFleetJourney() (map[string]float64, error) {
	_, out, err := b.loopdetect("default.json")
	if err != nil {
		return nil, err
	}
	b.judge(out, "batch report")
	want, fused := fleetExpectation(out)
	fmt.Printf("report: %d streams, %d loops, %d looped packets (%.1f%% of records); %d fleet loops expected, %d batch loops fused by the aggregator's join window\n",
		len(out.Streams), len(out.Loops), out.LoopedPackets, 100*float64(out.LoopedPackets)/float64(b.c.records), len(want), fused)
	// The session run is the reference for the daemon's emission-lag
	// histogram; the allocation count belongs to the trace journey but
	// every run reports every end-to-end metric. Both run before the
	// timed passes.
	allocs, lag, err := b.inProcess()
	if err != nil {
		return nil, err
	}

	recs := float64(b.c.records)
	var rps, cpu, rss []float64
	deadline := time.Now().Add(b.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := b.sampleSetup(setupBatch); err != nil {
			return nil, err
		}
		fp, err := b.fleetPass(pass, out, want)
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d: fleet caught up in %.3fs (daemon cpu %.3fs, rss %d MiB; aggregator cpu %.3fs)\n",
			pass, fp.caughtUp.Seconds(), fp.daemon.cpu.Seconds(), fp.daemon.rssKiB>>10, fp.agg.cpu.Seconds())
		rps = append(rps, recs/fp.caughtUp.Seconds())
		cpu = append(cpu, float64((fp.daemon.cpu+fp.agg.cpu).Microseconds())/recs)
		rss = append(rss, float64(fp.daemon.rssKiB)/1024)
	}
	setup, err := b.setupFigure()
	if err != nil {
		return nil, err
	}

	// The single-threaded batch baseline over the same capture, after
	// the fleet passes; it must agree with the default engine's report.
	var rpsW1 []float64
	for i := 0; i < w1Runs; i++ {
		st1, out1, err := b.loopdetect("w1.json", "-workers", "1")
		if err != nil {
			return nil, err
		}
		b.judge(out1, "-workers 1")
		if !sameDetection(out, out1) {
			b.fail("-workers 1 run %d: report differs from the default engine's", i)
		}
		rpsW1 = append(rpsW1, recs/st1.wall.Seconds())
	}
	return map[string]float64{
		"setup_s":          setup,
		"records_per_s":    median(rps),
		"records_per_s_w1": median(rpsW1),
		"cpu_us_per_rec":   median(cpu),
		"peak_rss_mb":      median(rss),
		"allocs_per_rec":   allocs,
		"emit_lag_p50_s":   lag,
	}, nil
}

// fleet is a running daemon and aggregator pair.
type fleet struct {
	daemon, agg *daemon
}

// startFleet launches loopscope-agg and loopscoped together: the
// daemon tails capture with its journal on and pushes every event to
// the aggregator's ingest endpoint; the aggregator journals too.
func (b *bench) startFleet(dir, capture string) (*fleet, error) {
	aggAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	a, err := startDaemon(filepath.Join(dir, "agg.log"), aggAddr, b.prog("loopscope-agg"),
		"-http", aggAddr, "-journal", filepath.Join(dir, "agg.jsonl"))
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(dir, "daemon.log"), dAddr, b.prog("loopscoped"),
		"-tail", linkName+"="+capture, "-vantage", "bench", "-http", dAddr,
		"-journal", filepath.Join(dir, "daemon.jsonl"), "-webhook", "http://"+aggAddr+"/api/v1/ingest")
	if err != nil {
		a.kill()
		return nil, err
	}
	return &fleet{daemon: d, agg: a}, nil
}

func (f *fleet) kill() {
	f.daemon.kill()
	f.agg.kill()
}

// fleetSetupSample times launching both programs until both answer
// /api/v1/health, over the header-only capture.
func (b *bench) fleetSetupSample(dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	f, err := b.startFleet(dir, b.c.emptyPath)
	if err != nil {
		return 0, err
	}
	defer f.kill()
	deadline := start.Add(30 * time.Second)
	if err := waitHealthy(f.agg, deadline); err != nil {
		return 0, err
	}
	if err := waitHealthy(f.daemon, deadline); err != nil {
		return 0, err
	}
	took := time.Since(start)
	// Stopping is not part of set-up. A stop that lands before the
	// program's signal handler only ends the sample early.
	for _, d := range []*daemon{f.daemon, f.agg} {
		if _, err := d.stop(30 * time.Second); errors.Is(err, errSIGTERMDefault) {
			fmt.Fprintln(os.Stderr, "e2ebench: set-up sample:", err)
		} else if err != nil {
			return 0, err
		}
	}
	return took, nil
}

// fleetPassResult is one pass of the fleet journey.
type fleetPassResult struct {
	caughtUp    time.Duration // daemon start → every record read and every loop clustered
	daemon, agg procStats
	latency     *loopscope.FleetLatency
}

// fleetPass runs the fleet journey once. With batch set, the pass ends
// when the daemon has read every record and published one event per
// batch loop, and the aggregator has ingested every event published;
// the daemon's journaled events must then be exactly the batch loops,
// and the fleet loop set must equal want. Without batch (the traced run
// over a trace workload, where loops may only close at shutdown) the
// pass ends once every record is read and every event ingested, and
// only the delivery counts are checked. Either way the aggregator is
// then restarted on its journal and must serve the identical fleet
// loop set.
func (b *bench) fleetPass(pass int, batch *ldOutput, want []string) (*fleetPassResult, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("pass-%d", pass))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	freeMemory()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Second)
	defer cancel()
	start := time.Now()
	f, err := b.startFleet(dir, b.c.path)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	dc, ac := loopscope.New(f.daemon.url), loopscope.New(f.agg.url)
	wantEvents := int64(0)
	if batch != nil {
		wantEvents = int64(len(batch.Loops))
	}

	var res fleetPassResult
	var events int64
	for {
		h, herr := dc.Health(ctx)
		if herr == nil {
			events = h.Events
		}
		if herr == nil && h.Records == int64(b.c.records) && h.Events >= wantEvents {
			var ingested int64
			vs, verr := ac.FleetVantages(ctx)
			if verr == nil {
				for _, v := range vs {
					ingested += v.Observations
				}
			}
			if ingested >= h.Events {
				res.caughtUp = time.Since(start)
				break
			}
		}
		select {
		case <-f.daemon.done:
			return nil, fmt.Errorf("loopscoped exited during pass %d (log %s)", pass, f.daemon.log.Name())
		case <-f.agg.done:
			return nil, fmt.Errorf("loopscope-agg exited during pass %d (log %s)", pass, f.agg.log.Name())
		case <-ctx.Done():
			return nil, fmt.Errorf("pass %d: fleet did not catch up (daemon published %d of %d events): %v",
				pass, events, wantEvents, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}

	dm, err := scrapeMetrics(ctx, f.daemon.url)
	if err != nil {
		return nil, err
	}
	if res.daemon, err = f.daemon.stop(30 * time.Second); err != nil {
		return nil, err
	}
	loops, err := ac.FleetLoops(ctx, loopscope.FleetLoopsQuery{})
	if err != nil {
		return nil, err
	}
	vs, err := ac.FleetVantages(ctx)
	if err != nil {
		return nil, err
	}
	if res.latency, err = ac.FleetLatency(ctx, loopscope.FleetLatencyQuery{}); err != nil {
		return nil, err
	}
	am, err := scrapeMetrics(ctx, f.agg.url)
	if err != nil {
		return nil, err
	}
	if res.agg, err = f.agg.stop(30 * time.Second); err != nil {
		return nil, err
	}

	// Events published against observations ingested; webhook drops,
	// duplicates and journal errors are failures.
	journaled, err := readJournal(filepath.Join(dir, "daemon.jsonl"))
	if err != nil {
		return nil, err
	}
	published := len(journaled)
	var ingested, dups int64
	for _, v := range vs {
		ingested += v.Observations
		dups += v.Duplicates
	}
	bad := int64(published) - ingested
	if bad < 0 {
		bad = -bad
	}
	bad += dups + int64(dm["loopscope_serve_sink_dropped_total"]) +
		int64(dm["loopscope_serve_journal_duplicates_total"]) + int64(am["loopscope_agg_journal_errors_total"])
	b.count(published, int(bad))

	if batch != nil {
		// Streaming ≡ batch: the daemon's events are the batch loops,
		// window and replica count alike, with none truncated.
		if diff := diffSets(batchLoopSet(batch), eventLoopSet(journaled)); diff != "" {
			b.fail("pass %d: daemon journal differs from the batch loop set: %s", pass, diff)
		}
		if diff := diffSets(want, fleetLoopSet(loops)); diff != "" {
			b.fail("pass %d: fleet loop set differs from the batch report under the aggregator's join rule: %s", pass, diff)
		}
		// The daemon's own detection-latency histogram must agree with
		// the in-process session, event for event.
		if b.session != nil {
			var sum time.Duration
			for _, l := range b.session.lags {
				sum += l
			}
			if got, n := dm["loopscope_serve_detect_latency_ns_sum"], dm["loopscope_serve_detect_latency_ns_count"]; int64(got) != int64(sum) || int(n) != len(b.session.lags) {
				b.fail("pass %d: daemon emission lag sum %.0fns over %.0f events, in-process session %dns over %d",
					pass, got, n, int64(sum), len(b.session.lags))
			}
		}
	}

	// A restart on the aggregator journal must serve the same set.
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	a2, err := startDaemon(filepath.Join(dir, "agg-restart.log"), addr, b.prog("loopscope-agg"),
		"-http", addr, "-journal", filepath.Join(dir, "agg.jsonl"))
	if err != nil {
		return nil, err
	}
	defer a2.kill()
	if err := waitHealthy(a2, time.Now().Add(60*time.Second)); err != nil {
		return nil, err
	}
	again, err := loopscope.New(a2.url).FleetLoops(ctx, loopscope.FleetLoopsQuery{})
	if err != nil {
		return nil, err
	}
	if _, err := a2.stop(30 * time.Second); errors.Is(err, errSIGTERMDefault) {
		fmt.Fprintln(os.Stderr, "e2ebench: aggregator restart:", err)
	} else if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(loops, again) {
		b.fail("pass %d: aggregator restart serves a different fleet loop set: %s",
			pass, diffSets(fleetLoopSet(loops), fleetLoopSet(again)))
	}
	return &res, nil
}

// readJournal decodes a daemon journal's events in journal order.
func readJournal(path string) ([]journalEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []journalEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e journalEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}
