package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was made; Parent indexes the enclosing span, -1 at
// the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps the spans of one traced run in memory. A nil recorder
// records nothing, which is how the untraced iterations run the same code.
// The benchmark is single-threaded, so the open spans form a stack.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("hostbench: spans closed out of order")
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// mark is the index the next span will get; spans[mark:] are the ones
// recorded since.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// layerTimes sums, per span name, the spans' durations and their self
// times. A span's self time is its duration minus its direct children's;
// children never overlap, so the self times under one root add up to the
// root's duration exactly.
type layerTimes struct {
	total, self map[string]time.Duration
}

// timesOf digests spans[from:to]; parents before from are treated as absent.
func timesOf(spans []span, from, to int) layerTimes {
	lt := layerTimes{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
	}
	for i := from; i < to; i++ {
		s := spans[i]
		d := time.Duration(s.End - s.Start)
		lt.total[s.Name] += d
		lt.self[s.Name] += d
		if s.Parent >= from {
			lt.self[spans[s.Parent].Name] -= d
		}
	}
	return lt
}

// durationsOf lists the durations of the spans named name, ascending.
func durationsOf(spans []span, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
