package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded in this
// package, around calls into each layer's public functions; nothing inside
// the program under test knows it is being traced.
type span struct {
	name   string
	id     int
	parent int // 0 = root
	run    int // the repeat this span belongs to; probes share run -1
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// *tracer records nothing, which is how untraced runs share the code.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: t.current(), run: t.run, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// current is the innermost open span's id, 0 at the root.
func (t *tracer) current() int {
	if t == nil || len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// end closes span id (and any span left open under it) now.
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes span id (and any span left open under it) at the given time.
func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[id-1].end = at.Sub(t.t0)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		if top == id {
			return
		}
		t.spans[top-1].end = t.spans[id-1].end
	}
}

// add records an already-measured interval as a child of parent.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, run: t.run, start: s, end: s + d})
	return id
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome-trace complete events (load in
// chrome://tracing or ui.perfetto.dev). One track per repeat; id, parent id,
// run id and self time ride in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.run + 2,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": s.run, "self_us": us(self[i])},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
