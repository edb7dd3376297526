package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonAttr is the wire form of an Attr.
type jsonAttr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// jsonRec is one JSONL line. Field order is fixed by the struct, and
// encoding/json emits struct fields in declaration order, so the same
// event log always serializes to the same bytes.
type jsonRec struct {
	T      string     `json:"t"`
	At     int64      `json:"at"` // virtual nanoseconds
	Span   uint64     `json:"span,omitempty"`
	Parent uint64     `json:"parent,omitempty"`
	Name   string     `json:"name,omitempty"`
	V      float64    `json:"v,omitempty"`
	N      uint64     `json:"n,omitempty"`
	Attrs  []jsonAttr `json:"attrs,omitempty"`
}

func toJSONAttrs(attrs []Attr) []jsonAttr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]jsonAttr, len(attrs))
	for i, a := range attrs {
		out[i] = jsonAttr{K: a.Key, V: a.Val}
	}
	return out
}

var recNames = [...]string{recBegin: "begin", recEnd: "end", recPoint: "event", recGauge: "gauge"}

// WriteJSONL writes the chronological event log — span begins and ends,
// point events, gauge samples — one JSON object per line, followed by
// the final counter values and histogram summaries (sorted by name).
// The output is a pure function of the recorded run: same seed, same
// bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, r := range t.log {
		jr := jsonRec{
			T:      recNames[r.kind],
			At:     int64(r.at),
			Span:   r.span,
			Parent: r.parent,
			Name:   r.name,
			V:      r.val,
			Attrs:  toJSONAttrs(r.attrs),
		}
		if err := enc.Encode(&jr); err != nil {
			return err
		}
	}
	end := int64(t.eng.Now())
	for _, name := range t.counterNames() {
		jr := jsonRec{T: "counter", At: end, Name: name, N: t.Counter(name).Value()}
		if err := enc.Encode(&jr); err != nil {
			return err
		}
	}
	for _, name := range t.histNames() {
		h := t.hists[name]
		jr := jsonRec{
			T: "hist", At: end, Name: name, N: uint64(h.N()),
			Attrs: []jsonAttr{
				{K: "p50", V: fmt.Sprintf("%g", h.Quantile(0.5))},
				{K: "p95", V: fmt.Sprintf("%g", h.Quantile(0.95))},
				{K: "max", V: fmt.Sprintf("%g", h.Quantile(1))},
			},
		}
		if err := enc.Encode(&jr); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// array form), loadable in chrome://tracing and Perfetto. Virtual time
// maps to microseconds; spans become complete ("X") events and point
// events become instants ("i").
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeArgs renders attrs as a map; encoding/json sorts map keys, so
// the output stays deterministic (later duplicates of a key win).
func chromeArgs(id, parent uint64, attrs []Attr) map[string]string {
	args := make(map[string]string, len(attrs)+2)
	args["span"] = fmt.Sprint(id)
	if parent != 0 {
		args["parent"] = fmt.Sprint(parent)
	}
	for _, a := range attrs {
		args[a.Key] = a.Val
	}
	return args
}

// WriteChromeTrace writes the span set in Chrome trace_event format.
// Open spans are emitted as running to the current virtual time.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var evs []chromeEvent
	for _, s := range t.spans {
		end := s.End
		if s.Open {
			end = t.eng.Now()
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Begin) / 1e3,
			Dur: float64(end-s.Begin) / 1e3,
			Pid: 1, Tid: 1,
			Args: chromeArgs(s.ID, s.Parent, s.Attrs),
		})
	}
	for _, r := range t.log {
		if r.kind != recPoint {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: r.name, Ph: "i",
			Ts:  float64(r.at) / 1e3,
			Pid: 1, Tid: 1, S: "t",
			Args: chromeArgs(r.span, 0, r.attrs),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}
