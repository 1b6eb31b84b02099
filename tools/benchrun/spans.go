package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"tracedst/internal/telemetry"
)

// spanLog collects the spans of a traced window in the repository's span
// schema (telemetry.SpanEvent): the harness's own spans around each call
// it makes into a layer, plus whatever the program exported. Spans stay in
// memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	events []telemetry.SpanEvent
}

// span is one running harness span. A nil *span records nothing, so the
// untraced window runs the same code with tracing off.
type span struct {
	log    *spanLog
	trace  telemetry.TraceID
	id     telemetry.SpanID
	parent telemetry.SpanID
	name   string
	start  time.Time
}

// root starts a span that begins a new trace; on a nil log it returns nil.
func (l *spanLog) root(name string) *span {
	if l == nil {
		return nil
	}
	return &span{log: l, trace: telemetry.NewTraceID(), id: telemetry.NewSpanID(), name: name, start: time.Now()}
}

// child starts a span whose parent is s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{log: s.log, trace: s.trace, id: telemetry.NewSpanID(), parent: s.id, name: name, start: time.Now()}
}

// traceparent renders s as a W3C traceparent header value, so a server
// that honours the header makes its spans children of s.
func (s *span) traceparent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.trace.String() + "-" + s.id.String() + "-01"
}

// end records s, tagged with alternating attribute keys and values.
func (s *span) end(kv ...string) {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	start := s.start.UnixNano()
	ev := telemetry.SpanEvent{
		Trace:   s.trace.String(),
		Span:    s.id.String(),
		Name:    s.name,
		StartNS: start,
		EndNS:   start + int64(wall),
	}
	if !s.parent.IsZero() {
		ev.Parent = s.parent.String()
	}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	s.log.add(ev)
}

// add appends finished events.
func (l *spanLog) add(evs ...telemetry.SpanEvent) {
	l.mu.Lock()
	l.events = append(l.events, evs...)
	l.mu.Unlock()
}

// mark returns a position in the log for a later since.
func (l *spanLog) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// since returns a copy of the events recorded after mark.
func (l *spanLog) since(mark int) []telemetry.SpanEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]telemetry.SpanEvent(nil), l.events[mark:]...)
}

// writeJSONL writes the events, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ev := range l.since(0) {
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanIndex answers the questions the per-layer metrics ask of a span set.
type spanIndex struct {
	events   []telemetry.SpanEvent
	children map[string][]int // "trace/span" -> indices of its children
}

func newSpanIndex(evs []telemetry.SpanEvent) *spanIndex {
	ix := &spanIndex{events: evs, children: map[string][]int{}}
	for i, ev := range evs {
		if ev.Parent != "" {
			k := ev.Trace + "/" + ev.Parent
			ix.children[k] = append(ix.children[k], i)
		}
	}
	return ix
}

// named returns the events called name.
func (ix *spanIndex) named(name string) []telemetry.SpanEvent {
	var out []telemetry.SpanEvent
	for _, ev := range ix.events {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// busyNS sums the wall time of the events called name.
func (ix *spanIndex) busyNS(name string) int64 {
	var t int64
	for _, ev := range ix.named(name) {
		t += ev.WallNS()
	}
	return t
}

// kids returns ev's direct children.
func (ix *spanIndex) kids(ev telemetry.SpanEvent) []telemetry.SpanEvent {
	var out []telemetry.SpanEvent
	for _, i := range ix.children[ev.Trace+"/"+ev.Span] {
		out = append(out, ix.events[i])
	}
	return out
}

// coveredNS returns how much of ev's interval its direct children cover
// (overlapping children count once). A span's self time is its wall time
// minus this.
func (ix *spanIndex) coveredNS(ev telemetry.SpanEvent) int64 {
	kids := ix.kids(ev)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var covered int64
	cur := ev.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, cur), min(k.EndNS, ev.EndNS)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return covered
}
