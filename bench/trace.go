package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op; parent
// is the ID of the span that caused this one (0 for an operation's root).
// counts carry what was measured at the same boundary: rows out, bytes, the
// number of observer calls behind a phase total.
//
// A span holds no pointer — names are interned — so the collector never scans
// the span log: with pointers in it, the marking of a log of 10^5 spans was
// charged to the traced operations and doubled their latency.
type span struct {
	parent, op int32
	name       nameID
	nCounts    uint8
	start, end int64 // ns since the tracer's epoch
	counts     [2]spanCount
}

type nameID uint16

type spanCount struct {
	key nameID
	n   int64
}

func (s *span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps the spans of one traced pass in memory; write puts them on disk
// when the workload ends. A nil tracer records nothing, which is how the
// decomposed operation path runs during the verification prefix.
type tracer struct {
	epoch time.Time
	spans []span
	names []string
	ids   map[string]nameID
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), ids: map[string]nameID{}}
}

func (t *tracer) intern(name string) nameID {
	id, ok := t.ids[name]
	if !ok {
		id = nameID(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{parent: int32(parent), op: int32(op), name: t.intern(name)})
	t.spans[len(t.spans)-1].start = int64(time.Since(t.epoch))
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].end = int64(time.Since(t.epoch))
	}
}

// rename gives a span the name only its outcome decides (the route kind of a
// read, whether a change hit a view).
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id-1].name = t.intern(name)
	}
}

// count attaches a count to the span; a span holds at most two.
func (t *tracer) count(id int, key string, n int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.counts[s.nCounts] = spanCount{t.intern(key), n}
	s.nCounts++
}

// add records a span whose duration was measured elsewhere — an observer phase
// total over calls calls — laid at the start of its parent and marked derived.
func (t *tracer) add(op, parent int, name string, d time.Duration, calls int64) {
	if t == nil {
		return
	}
	start := t.spans[parent-1].start
	t.spans = append(t.spans, span{parent: int32(parent), op: int32(op), name: t.intern(name), start: start, end: start + int64(d)})
	id := len(t.spans)
	t.count(id, "calls", calls)
	t.count(id, "derived", 1)
}

// get returns the span's count under key, 0 when absent.
func (t *tracer) get(s *span, key string) int64 {
	for _, c := range s.counts[:s.nCounts] {
		if t.names[c.key] == key {
			return c.n
		}
	}
	return 0
}

// each calls fn for every span whose name has the prefix.
func (t *tracer) each(prefix string, fn func(s *span)) {
	match := make([]bool, len(t.names))
	for i, name := range t.names {
		match[i] = strings.HasPrefix(name, prefix)
	}
	for i := range t.spans {
		if match[t.spans[i].name] {
			fn(&t.spans[i])
		}
	}
}

// durations returns the durations of every span whose name has the prefix.
func (t *tracer) durations(prefix string) []time.Duration {
	var out []time.Duration
	t.each(prefix, func(s *span) { out = append(out, s.dur()) })
	return out
}

// spanJSON is a span as the trace file spells it.
type spanJSON struct {
	ID     int              `json:"id"`
	Parent int32            `json:"parent"`
	Op     int32            `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// write stores the trace as one JSON document, one span per line.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, err = fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"spans\": [\n", workload, seed)
	for i := range t.spans {
		if err != nil {
			break
		}
		if i > 0 {
			w.WriteByte(',') //nolint:errcheck // Flush reports it
		}
		s := &t.spans[i]
		out := spanJSON{ID: i + 1, Parent: s.parent, Op: s.op, Name: t.names[s.name], Start: s.start, End: s.end}
		if s.nCounts > 0 {
			out.Counts = make(map[string]int64, s.nCounts)
			for _, c := range s.counts[:s.nCounts] {
				out.Counts[t.names[c.key]] = c.n
			}
		}
		err = enc.Encode(out)
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
