package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval. Spans are recorded by the harness only,
// around its calls into each layer; spans inside the program are a later
// change. A layer's self time is its span minus the part its children cover.
type Span struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// maxRequestSpans caps the client.call spans written per trace: a closed
// loop makes over a million requests in a run, and the file is for reading.
const maxRequestSpans = 250000

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so call sites need no "is this run traced" branches.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// reserve hands out the ID of a span whose children finish before it does.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// addWithID records a finished span under an ID from reserve.
func (t *tracer) addWithID(id uint64, name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent uint64, start, end time.Time) {
	t.addWithID(t.reserve(), name, parent, start, end)
}

// write stores the control spans plus one root client.call span per request
// as JSON lines. Past maxRequestSpans requests it keeps every k-th and says
// so in a leading "trace.sampled 1/k" span.
func (t *tracer) write(path, workload string, requests []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(sp Span) error {
		sp.Workload = workload
		return enc.Encode(&sp)
	}
	stride := len(requests)/maxRequestSpans + 1
	if stride > 1 {
		if err := emit(Span{Name: fmt.Sprintf("trace.sampled 1/%d", stride), ID: t.reserve()}); err != nil {
			return err
		}
	}
	for _, sp := range t.spans {
		if err := emit(sp); err != nil {
			return err
		}
	}
	for i := 0; i < len(requests); i += stride {
		s := requests[i]
		if s.lat < 0 {
			continue
		}
		if err := emit(Span{Name: "client.call", ID: t.reserve(), StartNs: s.due, EndNs: s.due + s.lat}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
