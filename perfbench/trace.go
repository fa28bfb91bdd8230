package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans live in memory for the whole run and are summarized when it
// ends; parent is the index of the enclosing span or -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the tracer's origin
}

// tracer records spans. A nil *tracer is the untraced configuration:
// every method is a no-op, so workload code calls it unconditionally and
// the untraced run pays one nil check per call. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat aggregates every span of one name under one parent name.
type spanStat struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	Count    int     `json:"count"`
	TotalS   float64 `json:"total_s"`
	SelfS    float64 `json:"self_s"`
	ChildS   float64 `json:"child_s"`
	Coverage float64 `json:"coverage"` // ChildS / TotalS; 0 for leaves
}

// summarizeSpans aggregates closed spans by parent name and name. A
// span's self time is its duration minus the part of its interval
// covered by the union of its children's intervals; its coverage is the
// plain sum of its children's durations over its own, so concurrent
// children can push coverage above 1 while self time never goes
// negative.
func summarizeSpans(spans []span) []spanStat {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	type key struct{ parent, name string }
	byKey := make(map[key]*spanStat)
	var order []key
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		k := key{name: s.name}
		if s.parent >= 0 {
			k.parent = spans[s.parent].name
		}
		st := byKey[k]
		if st == nil {
			st = &spanStat{Name: k.name, Parent: k.parent}
			byKey[k] = st
			order = append(order, k)
		}
		dur := s.end - s.start
		var ivs [][2]time.Duration
		var childSum time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end < 0 {
				continue
			}
			childSum += cs.end - cs.start
			ivs = append(ivs, [2]time.Duration{max(cs.start, s.start), min(cs.end, s.end)})
		}
		st.Count++
		st.TotalS += dur.Seconds()
		st.ChildS += childSum.Seconds()
		st.SelfS += (dur - unionLength(ivs)).Seconds()
	}
	out := make([]spanStat, 0, len(order))
	for _, k := range order {
		st := byKey[k]
		if st.TotalS > 0 {
			st.Coverage = st.ChildS / st.TotalS
		}
		out = append(out, *st)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTotal returns the summed duration in seconds of every span named
// name, under any parent (0 when none was recorded).
func spanTotal(stats []spanStat, name string) float64 {
	var t float64
	for _, s := range stats {
		if s.Name == name {
			t += s.TotalS
		}
	}
	return t
}
