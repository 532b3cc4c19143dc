package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/relation"
)

// The probes in this file are decorators the benchmark passes in through
// the service's public seams (SourceConfig.DB, SourceConfig.DenseStore and
// the mounted http.Handler). They observe a layer from outside; nothing is
// added inside the program.

// layer names one span kind.
type layer uint8

const (
	layerQuery  layer = iota // service: /api/query handler call
	layerNext                // service: /api/next handler call
	layerHidden              // hidden: one web-database search below resilience
)

var layerNames = [...]string{"service.query", "service.next", "hidden.search"}

// span is one timed call into a layer. Times are nanoseconds since the
// span log's epoch; rid is the request ID that joins spans of one request.
type span struct {
	layer      layer
	rid        string
	start, end int64
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) add(ly layer, rid string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{layer: ly, rid: rid, start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write dumps the spans as tab-separated rows: request ID, layer, start
// and duration in microseconds.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rid\tlayer\tstart_us\tdur_us")
	for _, s := range l.snapshot() {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", s.rid, layerNames[s.layer],
			float64(s.start)/1e3, float64(s.end-s.start)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hiddenProbe decorates a hidden.DB. Installed as SourceConfig.DB it sits
// below the service's resilience wrapper, so it sees exactly the searches
// that reach the web database.
type hiddenProbe struct {
	hidden.DB
	log *spanLog

	searches, errors  atomic.Int64
	busyNS            atomic.Int64
	inflight, maxInfl atomic.Int64
}

// Search implements hidden.DB.
func (p *hiddenProbe) Search(ctx context.Context, pred relation.Predicate) (hidden.Result, error) {
	n := p.inflight.Add(1)
	for {
		m := p.maxInfl.Load()
		if n <= m || p.maxInfl.CompareAndSwap(m, n) {
			break
		}
	}
	start := time.Now()
	res, err := p.DB.Search(ctx, pred)
	end := time.Now()
	p.inflight.Add(-1)
	p.searches.Add(1)
	p.busyNS.Add(end.Sub(start).Nanoseconds())
	if err != nil {
		p.errors.Add(1)
	}
	p.log.add(layerHidden, obs.RequestID(ctx), start, end)
	return res, err
}

// storeProbe decorates a kvstore.Store with operation counts and busy
// time. Store calls carry no context, so its time is reported per layer,
// not joined to requests.
type storeProbe struct {
	kvstore.Store
	puts, putBytes, gets atomic.Int64
	busyNS               atomic.Int64
}

func (s *storeProbe) timed(start time.Time) { s.busyNS.Add(time.Since(start).Nanoseconds()) }

// Get implements kvstore.Store.
func (s *storeProbe) Get(key []byte) ([]byte, bool, error) {
	defer s.timed(time.Now())
	s.gets.Add(1)
	return s.Store.Get(key)
}

// Put implements kvstore.Store.
func (s *storeProbe) Put(key, value []byte) error {
	defer s.timed(time.Now())
	s.puts.Add(1)
	s.putBytes.Add(int64(len(key) + len(value)))
	return s.Store.Put(key, value)
}

// Delete implements kvstore.Store.
func (s *storeProbe) Delete(key []byte) error {
	defer s.timed(time.Now())
	return s.Store.Delete(key)
}

// Range implements kvstore.Store.
func (s *storeProbe) Range(fn func(key, value []byte) bool) error {
	defer s.timed(time.Now())
	return s.Store.Range(fn)
}

// handlerProbe wraps the mounted service handler and times every
// /api/query and /api/next call, keyed by the X-QR2-Request ID the driver
// stamps on the request. Other paths (peer protocol, stats) pass through
// untimed.
type handlerProbe struct {
	next http.Handler
	log  *spanLog
}

func (h handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ly layer
	switch r.URL.Path {
	case "/api/query":
		ly = layerQuery
	case "/api/next":
		ly = layerNext
	default:
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.add(ly, r.Header.Get(obs.RequestHeader), start, time.Now())
}
