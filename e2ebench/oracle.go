package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"sort"
	"time"

	"loopscope/internal/agg"
	"loopscope/internal/core"
	"loopscope/pkg/loopscope"
)

// errCheck marks an output that disagrees with the oracle or with
// another path: the run is reported as incorrect.
var errCheck = errors.New("check failed")

// ldOutput is the part of `loopdetect -json` the benchmark reads.
type ldOutput struct {
	Packets       int        `json:"packets"`
	LoopedPackets int        `json:"loopedPackets"`
	Streams       []ldStream `json:"streams"`
	Loops         []ldLoop   `json:"loops"`
	Run           *struct {
		Workers int `json:"workers"`
		Stages  []struct {
			Stage   string `json:"stage"`
			TotalNs int64  `json:"totalNs"`
		} `json:"stages"`
	} `json:"run"`
}

type ldStream struct {
	ID       int    `json:"id"`
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Protocol uint8  `json:"protocol"`
	Replicas int    `json:"replicas"`
	TTLDelta int    `json:"ttlDelta"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
	Escaped  bool   `json:"escaped"`
}

type ldLoop struct {
	Prefix   string `json:"prefix"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
	Streams  []int  `json:"streamIds"`
	Replicas int    `json:"replicas"`
}

func readLoopdetect(path string) (*ldOutput, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out ldOutput
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &out, nil
}

// stageSeconds returns the run section's wall time for one stage.
func (o *ldOutput) stageSeconds(stage string) float64 {
	if o.Run == nil {
		return 0
	}
	for _, s := range o.Run.Stages {
		if s.Stage == stage {
			return float64(s.TotalNs) / 1e9
		}
	}
	return 0
}

// verdict is the oracle's account of one report: loops the script
// says must be found, how many were, and every violated property.
type verdict struct {
	expected, missed int
	problems         []string
}

func (v *verdict) addf(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checkReport holds a loopdetect report against the loop script and
// the properties the method guarantees. It does not run the detector:
// the expected loops come from the script and from the packets the
// generator itself counted.
func checkReport(out *ldOutput, c *capture, cfg core.Config) verdict {
	var v verdict
	if out.Packets != c.records {
		v.addf("report covers %d packets, capture has %d", out.Packets, c.records)
	}
	overlaps := func(l *scriptedLoop, prefix string, start, end int64) bool {
		s := l.spec
		return s.Prefix.String() == prefix && start < int64(s.Start+s.Duration) && end >= int64(s.Start)
	}

	// Precision: every reported loop lies on a scripted loop.
	for _, rl := range out.Loops {
		ok := false
		for i := range c.script {
			if overlaps(&c.script[i], rl.Prefix, rl.StartNs, rl.EndNs) {
				ok = true
				break
			}
		}
		if !ok {
			v.addf("reported loop %s [%d,%d] matches no scripted loop", rl.Prefix, rl.StartNs, rl.EndNs)
		}
	}
	// Recall: every scripted loop that left a stream of MinReplicas
	// replicas is covered by a reported loop.
	for i := range c.script {
		l := &c.script[i]
		if !l.qualifying(cfg.MinReplicas) {
			continue
		}
		v.expected++
		covered := false
		for _, rl := range out.Loops {
			if overlaps(l, rl.Prefix, rl.StartNs, rl.EndNs) {
				covered = true
				break
			}
		}
		if !covered {
			v.missed++
			v.addf("scripted loop %v at %v missed", l.spec.Prefix, l.spec.Start)
		}
	}

	// Stream properties, and the loop/stream bookkeeping.
	byID := make(map[int]*ldStream, len(out.Streams))
	sum := 0
	for i := range out.Streams {
		s := &out.Streams[i]
		byID[s.ID] = s
		sum += s.Replicas
		if s.TTLDelta < cfg.MinTTLDelta {
			v.addf("stream %d: TTL delta %d < %d", s.ID, s.TTLDelta, cfg.MinTTLDelta)
		}
		if s.Replicas < cfg.MinReplicas {
			v.addf("stream %d: %d replicas < %d", s.ID, s.Replicas, cfg.MinReplicas)
		} else if gap := time.Duration(s.EndNs-s.StartNs) / time.Duration(s.Replicas-1); gap > cfg.MaxReplicaGap {
			v.addf("stream %d: spacing %v > replica gap %v", s.ID, gap, cfg.MaxReplicaGap)
		}
	}
	if sum != out.LoopedPackets {
		v.addf("loopedPackets %d != %d summed over streams", out.LoopedPackets, sum)
	}
	member := make(map[int]bool, len(out.Streams))
	for _, rl := range out.Loops {
		reps := 0
		for _, id := range rl.Streams {
			s, ok := byID[id]
			if !ok || member[id] {
				v.addf("loop %s: stream %d unknown or in two loops", rl.Prefix, id)
				continue
			}
			member[id] = true
			reps += s.Replicas
			if !inPrefix(rl.Prefix, s.Dst) {
				v.addf("loop %s holds stream %d towards %s", rl.Prefix, id, s.Dst)
			}
		}
		if reps != rl.Replicas {
			v.addf("loop %s: %d replicas != %d over its streams", rl.Prefix, rl.Replicas, reps)
		}
	}
	if len(member) != len(out.Streams) {
		v.addf("%d of %d streams belong to no loop", len(out.Streams)-len(member), len(out.Streams))
	}
	return v
}

func inPrefix(prefix, addr string) bool {
	p, err := netip.ParsePrefix(prefix)
	if err != nil {
		return false
	}
	a, err := netip.ParseAddr(addr)
	return err == nil && p.Contains(a)
}

// sameDetection reports whether two reports found identical streams
// and loops.
func sameDetection(a, b *ldOutput) bool {
	return a.Packets == b.Packets && a.LoopedPackets == b.LoopedPackets &&
		reflect.DeepEqual(a.Streams, b.Streams) && reflect.DeepEqual(a.Loops, b.Loops)
}

// loopKey names a loop by prefix and trace-clock window, the identity
// shared by batch reports, daemon events and fleet loops.
func loopKey(prefix string, start, end int64) string {
	return fmt.Sprintf("%s@%d-%d", prefix, start, end)
}

// journalEvent is the part of a daemon journal line the benchmark
// reads.
type journalEvent struct {
	Prefix    string `json:"prefix"`
	StartNs   int64  `json:"startNs"`
	EndNs     int64  `json:"endNs"`
	Streams   int    `json:"streams"`
	Replicas  int    `json:"replicas"`
	Truncated bool   `json:"truncated"`
}

// batchLoopSet and eventLoopSet name loops by window, stream count and
// replica count, so a batch report and a daemon journal compare
// exactly. A truncated event is marked so it can never match.
func batchLoopSet(out *ldOutput) []string {
	var keys []string
	for _, l := range out.Loops {
		keys = append(keys, fmt.Sprintf("%s/%d streams/%d replicas", loopKey(l.Prefix, l.StartNs, l.EndNs), len(l.Streams), l.Replicas))
	}
	sort.Strings(keys)
	return keys
}

func eventLoopSet(events []journalEvent) []string {
	var keys []string
	for _, e := range events {
		k := fmt.Sprintf("%s/%d streams/%d replicas", loopKey(e.Prefix, e.StartNs, e.EndNs), e.Streams, e.Replicas)
		if e.Truncated {
			k += "/truncated"
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fleetExpectation is the fleet loop set one vantage reporting the
// batch loops should produce under the aggregator's documented
// correlation rule: same aggregated prefix, TTL deltas within
// agg.DefaultTTLSlack, windows within agg.DefaultJoinWindow, each
// observation joining the first compatible cluster in arrival order
// (per prefix, the daemon emits in start order). fused counts batch
// loops the rule merges into an earlier one.
func fleetExpectation(out *ldOutput) (want []string, fused int) {
	ttl := make(map[int]int, len(out.Streams))
	for _, s := range out.Streams {
		ttl[s.ID] = s.TTLDelta
	}
	type cluster struct {
		ttl        int
		start, end int64
	}
	byPrefix := map[string][]*cluster{}
	var all []*cluster
	prefixOf := map[*cluster]string{}
	slack := int64(agg.DefaultJoinWindow)
	for _, l := range out.Loops {
		delta := 0
		if len(l.Streams) > 0 {
			delta = ttl[l.Streams[0]]
		}
		joined := false
		for _, c := range byPrefix[l.Prefix] {
			if abs(c.ttl-delta) <= agg.DefaultTTLSlack && l.StartNs <= c.end+slack && l.EndNs >= c.start-slack {
				c.start, c.end = min(c.start, l.StartNs), max(c.end, l.EndNs)
				joined = true
				fused++
				break
			}
		}
		if !joined {
			c := &cluster{ttl: delta, start: l.StartNs, end: l.EndNs}
			byPrefix[l.Prefix] = append(byPrefix[l.Prefix], c)
			all = append(all, c)
			prefixOf[c] = l.Prefix
		}
	}
	for _, c := range all {
		want = append(want, loopKey(prefixOf[c], c.start, c.end))
	}
	sort.Strings(want)
	return want, fused
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func fleetLoopSet(loops []loopscope.FleetLoop) []string {
	var keys []string
	for _, l := range loops {
		keys = append(keys, loopKey(l.Prefix, l.StartNs, l.EndNs))
	}
	sort.Strings(keys)
	return keys
}

// diffSets describes how two sorted key sets differ, or returns "".
func diffSets(want, got []string) string {
	if reflect.DeepEqual(want, got) {
		return ""
	}
	in := func(set []string, k string) bool {
		i := sort.SearchStrings(set, k)
		return i < len(set) && set[i] == k
	}
	var missing, extra []string
	for _, k := range want {
		if !in(got, k) {
			missing = append(missing, k)
		}
	}
	for _, k := range got {
		if !in(want, k) {
			extra = append(extra, k)
		}
	}
	return fmt.Sprintf("%d wanted, %d got; missing %v; extra %v",
		len(want), len(got), head(missing), head(extra))
}

func head(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}
