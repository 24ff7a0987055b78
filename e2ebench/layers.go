package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"loopscope/internal/agg"
	"loopscope/internal/analysis"
	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/serve"
	"loopscope/internal/trace"
	"loopscope/pkg/loopscope"
)

// detectorConfig is the configuration loopdetect and loopscoped run
// with by default; daemonConfig adds the daemon's default memory
// governor cap (-max-streams).
var (
	detectorConfig = core.DefaultConfig()
	daemonConfig   = func() core.Config {
		c := core.DefaultConfig()
		c.MaxActiveStreams = 65536
		return c
	}()
)

// vantages is how many fleet vantages the in-process aggregator is fed
// the run's events as, so every event after the first joins a cluster.
const vantages = 3

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// readCapture is loopdetect's read stage: trace.Open, then every
// record into memory.
func readCapture(path string) ([]trace.Record, trace.Meta, error) {
	src, _, err := trace.Open(path, trace.OpenOptions{})
	if err != nil {
		return nil, trace.Meta{}, err
	}
	defer trace.CloseSource(src)
	var recs []trace.Record
	for {
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			return recs, src.Meta(), nil
		}
		if err != nil {
			return nil, trace.Meta{}, err
		}
		recs = append(recs, r)
	}
}

// detect runs an engine over records the way loopdetect does: whole
// batches when the engine takes them, and FinishErr when it can fail.
func detect(e core.Engine, recs []trace.Record) (*core.Result, error) {
	if bo, ok := e.(core.BatchObserver); ok {
		bo.ObserveBatch(recs)
	} else {
		for _, r := range recs {
			e.Observe(r)
		}
	}
	if ef, ok := e.(core.ErrFinisher); ok {
		return ef.FinishErr()
	}
	return e.Finish(), nil
}

// loopdetectAllocs counts heap allocations per record for the public
// calls `loopdetect -json` makes: trace.Open and read, core.New with
// the default worker count, detection, and analysis.Analyze. It returns
// the records it read.
func loopdetectAllocs(path string) (float64, []trace.Record, error) {
	runtime.GC()
	m0 := mallocs()
	recs, meta, err := readCapture(path)
	if err != nil {
		return 0, nil, err
	}
	e, err := core.New(detectorConfig, core.WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		return 0, nil, err
	}
	res, err := detect(e, recs)
	if err != nil {
		return 0, nil, err
	}
	analysis.Analyze(meta, recs, res)
	return float64(mallocs()-m0) / float64(len(recs)), recs, nil
}

// layerRun collects per-layer figures; with a nil tracer nothing is
// measured and the journey runs untimed apart from its total.
type layerRun struct {
	t    *tracer
	nums map[string]float64
	m0   uint64
}

// open starts a layer span and, when tracing, an allocation count.
func (l *layerRun) open(name string, parent int) int {
	if l.t != nil {
		l.m0 = mallocs()
	}
	return l.t.begin(name, parent)
}

// close ends a layer span; it returns the span's length and the
// allocations made inside it.
func (l *layerRun) close(id int) (time.Duration, float64) {
	d := l.t.end(id)
	if l.t == nil {
		return 0, 0
	}
	return d, float64(mallocs() - l.m0)
}

func (l *layerRun) set(name string, v float64) {
	if l.t != nil {
		l.nums[name] = v
	}
}

// traceLayers is the trace → report journey called layer by layer in
// process: read, sequential detection and its finish, the default
// parallel engine, analysis, and the analytics reduction loopdetect
// -json adds. It returns the journey's wall time.
func traceLayers(l *layerRun, path string) (time.Duration, error) {
	start := time.Now()
	root := l.t.begin("journey.trace", -1)
	defer l.t.end(root)

	sp := l.open("trace.read", root)
	recs, meta, err := readCapture(path)
	d, allocs := l.close(sp)
	if err != nil {
		return 0, err
	}
	n := float64(len(recs))
	l.set("trace.read_ns_per_rec", float64(d.Nanoseconds())/n)
	l.set("trace.read_allocs_per_rec", allocs/n)

	sp = l.open("core.observe", root)
	seq, err := core.New(detectorConfig, core.WithWorkers(1))
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		seq.Observe(r)
	}
	d, allocs = l.close(sp)
	l.set("core.observe_ns_per_rec", float64(d.Nanoseconds())/n)
	l.set("core.observe_allocs_per_rec", allocs/n)

	sp = l.open("core.finish", root)
	res := seq.Finish()
	d, _ = l.close(sp)
	l.set("core.finish_ms", float64(d.Nanoseconds())/1e6)
	candidates := len(res.Streams) + res.PairsDiscarded + res.SubnetInvalidated
	l.set("core.validated_share", float64(len(res.Streams))/float64(max(candidates, 1)))

	sp = l.open("core.parallel_observe", root)
	reg := obs.NewRegistry()
	par, err := core.New(detectorConfig, core.WithMetrics(reg))
	if err != nil {
		return 0, err
	}
	pres, err := detect(par, recs)
	d, _ = l.close(sp)
	if err != nil {
		return 0, err
	}
	l.set("core.parallel_observe_ns_per_rec", float64(d.Nanoseconds())/n)
	l.set("core.shard_skew", shardSkew(reg))
	if len(pres.Loops) != len(res.Loops) || len(pres.Streams) != len(res.Streams) {
		return 0, fmt.Errorf("%w: parallel engine found %d loops/%d streams, sequential %d/%d",
			errCheck, len(pres.Loops), len(pres.Streams), len(res.Loops), len(res.Streams))
	}

	sp = l.open("analysis.analyze", root)
	analysis.Analyze(meta, recs, res)
	d, _ = l.close(sp)
	l.set("analysis.analyze_ms", float64(d.Nanoseconds())/1e6)

	sp = l.open("analytics.record", root)
	col := analytics.NewCollector(analytics.Options{})
	col.RecordResult(meta.Link, res)
	d, _ = l.close(sp)
	l.set("analytics.record_us_per_loop", float64(d.Nanoseconds())/1e3/float64(max(len(res.Loops), 1)))
	return time.Since(start), nil
}

// shardSkew is max/mean over the parallel engine's per-shard record
// counters (1 when there is a single shard).
func shardSkew(reg *obs.Registry) float64 {
	var top, sum, n int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, obs.MetricShardRecords+"{") {
			n++
			sum += v
			top = max(top, v)
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return float64(top) / (float64(sum) / float64(n))
}

// sessionRun is what the streaming engine emitted over a capture.
type sessionRun struct {
	events []serve.Event
	// lags holds, per final emission, how far the stream had advanced
	// on the trace clock past the loop's last packet.
	lags []time.Duration
}

// emitLagP50 is the median trace-clock emission lag in seconds.
func (s *sessionRun) emitLagP50() float64 {
	if len(s.lags) == 0 {
		return 0
	}
	secs := make([]float64, len(s.lags))
	for i, d := range s.lags {
		secs[i] = d.Seconds()
	}
	return median(secs)
}

// runSession feeds records through core.Session, the engine the daemon
// runs per source, and renders its emissions as the daemon's events.
func runSession(recs []trace.Record) (*sessionRun, error) {
	out := &sessionRun{}
	var sess *core.Session
	sess, err := core.NewSession(daemonConfig, func(se core.SessionEvent) {
		if !se.Truncated {
			out.lags = append(out.lags, sess.HighWater()-se.Loop.End)
		}
		out.events = append(out.events, sessionEvent(se))
	})
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		sess.Observe(r)
	}
	sess.Drain()
	return out, nil
}

// sessionEvent renders an emission the way the daemon does, with the
// detect and publish provenance stamps the daemon takes.
func sessionEvent(se core.SessionEvent) serve.Event {
	l := se.Loop
	ev := serve.Event{
		Source: linkName, Vantage: "bench", Link: linkName,
		Prefix: l.Prefix.String(), Seq: se.Seq,
		StartNs: int64(l.Start), EndNs: int64(l.End), DurationNs: int64(l.End - l.Start),
		Streams: len(l.Streams), Replicas: l.Replicas(), Truncated: se.Truncated,
		EmittedAtNs: time.Now().UnixNano(),
	}
	if len(l.Streams) > 0 {
		ev.TTLDelta = l.Streams[0].TTLDelta()
	}
	for _, s := range l.Streams {
		if s.Escaped() {
			ev.Escaped++
		}
	}
	ev.ID = flight.LoopID(ev.Source, ev.Prefix, ev.StartNs)
	if se.Truncated {
		ev.ID = fmt.Sprintf("%s-t%x", ev.ID, ev.EndNs)
	}
	now := provenance.Now()
	ev.Prov = ev.Prov.Stamp(provenance.HopDetected, now).Stamp(provenance.HopPublished, now)
	return ev
}

// fleetLayers is the packet → journal → fleet cluster journey called
// layer by layer in process: the tail reader over the capture, the
// streaming session, the builder high-water mark, the journal, and the
// aggregator's ingest and replay with its journal on. dir holds the
// journals. It returns the journey's wall time.
func fleetLayers(l *layerRun, path, dir string) (time.Duration, error) {
	start := time.Now()
	root := l.t.begin("journey.fleet", -1)
	defer l.t.end(root)
	ctx := context.Background()

	sp := l.open("trace.tail", root)
	recs, err := tailCapture(ctx, path)
	d, _ := l.close(sp)
	if err != nil {
		return 0, err
	}
	n := float64(len(recs))
	l.set("trace.tail_ns_per_rec", float64(d.Nanoseconds())/n)

	sp = l.open("core.session", root)
	sr, err := runSession(recs)
	d, allocs := l.close(sp)
	if err != nil {
		return 0, err
	}
	l.set("core.session_ns_per_rec", float64(d.Nanoseconds())/n)
	l.set("core.session_allocs_per_rec", allocs/n)

	sp = l.open("core.stream_builders", root)
	sd := core.NewStreamDetector(daemonConfig, nil)
	peak := 0
	for i, r := range recs {
		sd.Observe(r)
		if i%1024 == 0 {
			peak = max(peak, sd.LiveBuilders())
		}
	}
	sd.Finish()
	l.close(sp)
	l.set("core.live_builders_peak", float64(peak))
	recs = nil

	events := sr.events
	if len(events) == 0 {
		return 0, fmt.Errorf("%w: the session emitted no loops", errCheck)
	}
	jpath := dir + "/inproc-journal.jsonl"
	apath := dir + "/inproc-agg.jsonl"
	os.Remove(jpath)
	os.Remove(apath)

	sp = l.open("serve.journal_publish", root)
	j, err := serve.NewJournal(serve.JournalOptions{Path: jpath})
	if err != nil {
		return 0, err
	}
	for _, ev := range events {
		j.Publish(ev)
	}
	err = j.Close(ctx)
	d, _ = l.close(sp)
	if err != nil {
		return 0, err
	}
	l.set("serve.journal_publish_us", float64(d.Nanoseconds())/1e3/float64(len(events)))

	// The aggregator takes the wire form of each event, as the webhook
	// delivers it; converting is not part of the layer's cost.
	wire := make([]loopscope.Event, len(events))
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(b, &wire[i]); err != nil {
			return 0, err
		}
	}
	sp = l.open("agg.ingest", root)
	a, err := agg.New(agg.Config{Journal: apath})
	if err != nil {
		return 0, err
	}
	for _, ev := range wire {
		for v := 0; v < vantages; v++ {
			fresh, err := a.Ingest(agg.Observation{Vantage: fmt.Sprintf("v%d", v), Transport: agg.TransportPush, Event: ev})
			if err != nil || !fresh {
				a.Close()
				return 0, fmt.Errorf("%w: ingest %s as v%d: fresh=%v err=%v", errCheck, ev.ID, v, fresh, err)
			}
		}
	}
	fleet := fleetLoopSet(a.FleetLoops())
	err = a.Close()
	d, _ = l.close(sp)
	if err != nil {
		return 0, err
	}
	l.set("agg.ingest_us_per_obs", float64(d.Nanoseconds())/1e3/float64(vantages*len(wire)))

	sp = l.open("agg.replay", root)
	b, err := agg.New(agg.Config{Journal: apath})
	if err != nil {
		return 0, err
	}
	replayed := fleetLoopSet(b.FleetLoops())
	err = b.Close()
	d, _ = l.close(sp)
	if err != nil {
		return 0, err
	}
	l.set("agg.replay_ms", float64(d.Nanoseconds())/1e6)
	if diff := diffSets(fleet, replayed); diff != "" {
		return 0, fmt.Errorf("%w: in-process aggregator replay differs: %s", errCheck, diff)
	}
	return time.Since(start), nil
}

// tailCapture reads a finished capture through trace.TailReader, the
// daemon's file source, into memory.
func tailCapture(ctx context.Context, path string) ([]trace.Record, error) {
	tr, err := trace.OpenTail(path, trace.TailOptions{Poll: time.Millisecond, IdleTimeout: time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	var recs []trace.Record
	for {
		r, err := tr.Next(ctx)
		if errors.Is(err, trace.ErrTailIdle) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
}
