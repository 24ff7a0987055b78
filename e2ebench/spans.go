package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, when it ran, and the
// span it ran inside (-1 for a journey's root).
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced twin of each journey
// runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent,
		StartNs: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// duration returns span id's length.
func (t *tracer) duration(id int) time.Duration {
	s := t.spans[id]
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTime is a span's duration minus the part of it its children
// cover. Children of one span run one after another, so their
// durations add up without overlap.
func (t *tracer) selfTime(id int) time.Duration {
	self := t.duration(id)
	for _, s := range t.spans {
		if s.Parent == id {
			self -= t.duration(s.ID)
		}
	}
	return self
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes prints, per journey root, each layer's self time and
// its share of the root's wall time, then how much of the wall time
// the layer spans account for.
func (t *tracer) printSelfTimes(w io.Writer, untraced map[string]time.Duration) {
	for _, root := range t.spans {
		if root.Parent != -1 {
			continue
		}
		wall := t.duration(root.ID)
		fmt.Fprintf(w, "journey %-24s traced wall %9.3fs", root.Name, wall.Seconds())
		if u, ok := untraced[root.Name]; ok {
			fmt.Fprintf(w, "  untraced wall %9.3fs  tracing overhead %+.2f%%",
				u.Seconds(), 100*(wall.Seconds()-u.Seconds())/u.Seconds())
		}
		fmt.Fprintln(w)
		var kids []span
		var covered time.Duration
		t.descendants(root.ID, &kids)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		for _, k := range kids {
			self := t.selfTime(k.ID)
			covered += self
			fmt.Fprintf(w, "  %-32s self %9.3fs  %5.1f%%\n", k.Name, self.Seconds(), 100*self.Seconds()/wall.Seconds())
		}
		fmt.Fprintf(w, "  %-32s self %9.3fs  %5.1f%%  (layer spans cover %.1f%% of the journey)\n",
			"(between layer calls)", t.selfTime(root.ID).Seconds(),
			100*t.selfTime(root.ID).Seconds()/wall.Seconds(), 100*covered.Seconds()/wall.Seconds())
	}
}

func (t *tracer) descendants(id int, out *[]span) {
	for _, s := range t.spans {
		if s.Parent == id {
			*out = append(*out, s)
			t.descendants(s.ID, out)
		}
	}
}
