package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around a call into a layer:
// a client request, the handler that served it (joined to the client
// span by Trace, the request ID the client sets), or one direct probe
// of the world, agent or journal layer.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	Dur    int64  `json:"dur_ns"`
	Status int    `json:"status,omitempty"`
	// Elapsed is world.Exec's own time (ExecResult.Elapsed), on exec
	// client spans.
	Elapsed int64 `json:"exec_elapsed_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one that is off, records nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextID hands out a trace ID while the recorder is on.
func (r *recorder) nextID() (uint64, bool) {
	if r == nil || !r.on.Load() {
		return 0, false
	}
	return r.ids.Add(1), true
}

func (r *recorder) span(id uint64, name string, start, end time.Time) span {
	return span{Trace: id, Name: name, Start: int64(start.Sub(r.epoch)), Dur: int64(end.Sub(start))}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// probe ends a direct-probe interval begun at start, records its span
// while the recorder is on, and returns the interval.
func (r *recorder) probe(name string, start time.Time) time.Duration {
	end := time.Now()
	if id, ok := r.nextID(); ok {
		r.add(r.span(id, "probe."+name, start, end))
	}
	return end.Sub(start)
}

// middleware records a handler span for every request that carries a
// request ID.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req)
		sp := r.span(id, "worldd.handler", start, time.Now())
		sp.Status = sw.status
		r.add(sp)
	})
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// write saves every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestTimes are the per-request figures joined spans give, in µs.
type requestTimes struct {
	handler       []float64 // exec: handler time
	transportSelf []float64 // exec: client time minus handler time
	worlddSelf    []float64 // exec: handler time minus world.Exec
	exec          []float64 // exec: world.Exec
	// lifecycle is handler time by request kind: create.pooled,
	// create.boot, delete.
	lifecycle map[string][]float64
}

// derive joins each successful client span to its handler span and
// derives self times: transport = client − handler (socket, HTTP and
// JSON on both sides), worldd = handler − world.Exec (decode, gates,
// world lock wait, encode).
func (r *recorder) derive() requestTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	handlers := make(map[uint64]span)
	for _, s := range r.spans {
		if s.Name == "worldd.handler" {
			handlers[s.Trace] = s
		}
	}
	t := requestTimes{lifecycle: make(map[string][]float64)}
	for _, c := range r.spans {
		h, ok := handlers[c.Trace]
		kind, client := strings.CutPrefix(c.Name, "client.")
		if !ok || !client || h.Status >= 300 {
			continue
		}
		hd := float64(h.Dur) / 1e3
		switch kind {
		case "exec":
			t.handler = append(t.handler, hd)
			t.transportSelf = append(t.transportSelf, float64(c.Dur-h.Dur)/1e3)
			t.worlddSelf = append(t.worlddSelf, float64(h.Dur-c.Elapsed)/1e3)
			t.exec = append(t.exec, float64(c.Elapsed)/1e3)
		case "create.pooled", "create.boot", "delete":
			t.lifecycle[kind] = append(t.lifecycle[kind], hd)
		}
	}
	return t
}
