package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span kinds. A call span times one exported call on the op's critical
// path. A probe span times a second, duplicate call made only to split
// its parent (the second Tokenize inside ParseFile, the second
// MethodHashes inside Extract); the op clock is paused while it runs, so
// probes never count toward the op's time. A timer span carries a
// duration read from a timer the program already exposes, for work
// behind an unexported boundary. Probe and timer spans have a duration
// but no interval on the op clock.
const (
	kindCall  = "call"
	kindProbe = "probe"
	kindTimer = "timer"
)

// span is one recorded interval. Start and End are milliseconds on the
// op clock, which starts at the op and stops while probes run.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Dur    float64 `json:"dur_ms"`
}

// opTrace records the spans of one traced op. It is used by one
// goroutine at a time. A nil *opTrace is the untraced mode: every method
// is a no-op and probes do not run.
type opTrace struct {
	op     int
	base   time.Time
	paused time.Duration
	spans  []span
}

func newOpTrace(op int) *opTrace {
	return &opTrace{op: op, base: time.Now()}
}

// now reads the op clock.
func (t *opTrace) now() float64 { return ms(time.Since(t.base) - t.paused) }

// begin opens a call span under parent (-1 for the op's root).
func (t *opTrace) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, Kind: kindCall, Start: now})
	return len(t.spans) - 1
}

// end closes a call span.
func (t *opTrace) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.Dur = s.End - s.Start
}

// pause runs f with the op clock stopped and returns how long it took.
func (t *opTrace) pause(f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.paused += d
	return d
}

// probe runs f with the op clock paused and records its duration as a
// probe span under parent.
func (t *opTrace) probe(parent int, name string, f func()) int {
	if t == nil {
		return -1
	}
	return t.attribute(parent, name, kindProbe, t.pause(f))
}

// graft copies the spans of sub, a trace of calls replayed outside the
// op, under parent as probe spans with their durations.
func (t *opTrace) graft(parent int, sub *opTrace) {
	ids := make([]int, len(sub.spans))
	for i, s := range sub.spans {
		p := parent
		if s.Parent >= 0 {
			p = ids[s.Parent]
		}
		ids[i] = t.attribute(p, s.Name, kindProbe, time.Duration(s.Dur*float64(time.Millisecond)))
	}
}

// attribute records a duration known from outside the op clock (a probe
// or a program timer) as a child of parent.
func (t *opTrace) attribute(parent int, name, kind string, d time.Duration) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, Kind: kind, Start: now, End: now, Dur: ms(d)})
	return len(t.spans) - 1
}

// opMS is the traced op time: the root span on the op clock.
func (t *opTrace) opMS() float64 {
	for _, s := range t.spans {
		if s.Parent < 0 {
			return s.Dur
		}
	}
	return 0
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its call children cover, minus the durations of
// its probe and timer children. Over one op the self times sum to the
// root span's duration.
func (t *opTrace) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	var calls = make([][][2]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.Dur
		if s.Parent < 0 {
			continue
		}
		if s.Kind == kindCall {
			calls[s.Parent] = append(calls[s.Parent], [2]float64{s.Start, s.End})
		} else {
			self[s.Parent] -= s.Dur
		}
	}
	for i, iv := range calls {
		self[i] -= covered(iv)
	}
	return self
}

// covered is the length of the union of intervals.
func covered(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// rowOf maps span names to the per-layer metric their self time feeds.
// Names without a row feed other_ms.
var rowOf = map[string]string{
	"lexer":         "lexer.ms",
	"parser":        "parser.ms",
	"types":         "types.ms",
	"ir":            "ir.ms",
	"callgraph":     "callgraph.ms",
	"oracle.hash":   "oracle.hash_ms",
	"extract":       "analysis.ms",
	"store.extract": "analysis.ms",
	"store.seed":    "store.seed_ms",
	"server.put":    "store.update_ms",
	"policy.import": "policy.import_ms",
	"policy.export": "policy.export_ms",
	"diff":          "diff.ms",
	"diff.encode":   "diff.encode_ms",
	"http":          "server.http_ms",
}

// addRows adds the op's self times, per row, into rows (milliseconds).
func (t *opTrace) addRows(rows map[string]float64) {
	for i, self := range t.selfTimes() {
		row, ok := rowOf[t.spans[i].Name]
		if !ok {
			row = "other_ms"
		}
		rows[row] += self
	}
}

// writeSpans stores the spans of every traced op, kept in memory until
// the run ends, as one JSON object per line.
func writeSpans(path string, ops []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ops {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
