package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// pageDoc is the part of an /api/query or /api/next response the driver
// reads.
type pageDoc struct {
	QID       string   `json:"qid"`
	Page      int      `json:"page"`
	Rows      []rowDoc `json:"rows"`
	Exhausted bool     `json:"exhausted"`
	Degraded  bool     `json:"degraded"`
	Stats     panelDoc `json:"stats"`
}

type rowDoc struct {
	ID     int64          `json:"id"`
	Values map[string]any `json:"values"`
}

// panelDoc is the statistics panel. Its counters are cumulative over the
// cursor's pages.
type panelDoc struct {
	Queries         int64   `json:"queries"`
	Batches         int64   `json:"batches"`
	ParallelPct     float64 `json:"parallel_pct"`
	DenseCrawls     int64   `json:"dense_crawls"`
	CrawledTuples   int64   `json:"crawled_tuples"`
	CacheCandidates int64   `json:"cache_candidates"`
}

const (
	opQuery uint8 = iota
	opNext
)

// reqRecord is one request as the driver saw it. Times are nanoseconds
// since the recorder's epoch; wrote and firstByte are set on traced runs
// only (client-side request written, first response byte read).
type reqRecord struct {
	op               uint8
	ok               bool
	rid              string
	start, end       int64
	wrote, firstByte int64
}

// pageRecord is one received page, kept for the oracle check. valuesOK
// records whether every row's values equalled the catalog tuple with the
// same ID when the page arrived.
type pageRecord struct {
	form, cursor, page int32
	valuesOK           bool
	ids                []int64
	panel              panelDoc
}

// recorder is one client's log; clients never share one.
type recorder struct {
	reqs     []reqRecord
	pages    []pageRecord
	sessions int
	errs     []string // the first few request failures
}

// conn is a client talking to one replica on behalf of one session at a
// time; fresh starts a new session with an empty cookie jar.
type conn struct {
	e      *env
	base   string
	hc     *http.Client
	prefix string // request-ID prefix, unique per conn within a run
	seq    int
	epoch  time.Time
	rec    *recorder // nil during warm-up
	traced bool
}

// newConn returns a warm-up conn: it records nothing.
func newConn(e *env, replica int) *conn {
	return &conn{e: e, base: e.replicas[replica].url, prefix: "w" + strconv.Itoa(replica) + "-", epoch: time.Now()}
}

// fresh starts a new user session.
func (c *conn) fresh() {
	jar, _ := cookiejar.New(nil) // cookiejar.New never fails without a PublicSuffixList
	c.hc = &http.Client{Transport: c.e.client.Transport, Jar: jar}
	if c.rec != nil {
		c.rec.sessions++
	}
}

// do posts one form and decodes the page. A transport error, a non-200
// status or a degraded page is an error.
func (c *conn) do(op uint8, path, body string) (*pageDoc, error) {
	c.seq++
	rid := c.prefix + strconv.Itoa(c.seq)
	rr := reqRecord{op: op, rid: rid}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set(obs.RequestHeader, rid)
	if c.traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { rr.wrote = time.Since(c.epoch).Nanoseconds() },
			GotFirstResponseByte: func() { rr.firstByte = time.Since(c.epoch).Nanoseconds() },
		}))
	}
	doc, err := c.roundTrip(req)
	rr.start = start.Sub(c.epoch).Nanoseconds()
	rr.end = time.Since(c.epoch).Nanoseconds()
	if err == nil && doc.Degraded {
		err = fmt.Errorf("%s: degraded page", path)
	}
	rr.ok = err == nil
	if c.rec != nil {
		c.rec.reqs = append(c.rec.reqs, rr)
		if err != nil && len(c.rec.errs) < 3 {
			c.rec.errs = append(c.rec.errs, err.Error())
		}
	}
	return doc, err
}

func (c *conn) roundTrip(req *http.Request) (*pageDoc, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", req.URL.Path, resp.Status, strings.TrimSpace(string(msg)))
	}
	var doc pageDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", req.URL.Path, err)
	}
	return &doc, nil
}

func (c *conn) query(f form) (*pageDoc, error) { return c.do(opQuery, "/api/query", f.body) }

func (c *conn) next(qid string) (*pageDoc, error) {
	return c.do(opNext, "/api/next", url.Values{"qid": {qid}}.Encode())
}

// warmStep runs a form to its deepest page (a query and two nexts).
func (c *conn) warmStep(f form) error {
	doc, err := c.query(f)
	for i := 0; err == nil && i < 2 && !doc.Exhausted; i++ {
		doc, err = c.next(doc.QID)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f, err)
	}
	return nil
}

// record keeps a page for the oracle check.
func (c *conn) record(formIdx int, cursor int32, doc *pageDoc) {
	rel := c.e.cats[c.e.tr.forms[formIdx].source].Rel
	pr := pageRecord{form: int32(formIdx), cursor: cursor, page: int32(doc.Page),
		valuesOK: true, ids: make([]int64, len(doc.Rows)), panel: doc.Stats}
	for i, row := range doc.Rows {
		pr.ids[i] = row.ID
		if !valuesMatch(rel, row) {
			pr.valuesOK = false
		}
	}
	c.rec.pages = append(c.rec.pages, pr)
}

// valuesMatch reports whether a response row carries exactly the values
// of the catalog tuple with its ID. Categorical values arrive as labels.
func valuesMatch(rel *relation.Relation, row rowDoc) bool {
	if row.ID < 1 || row.ID > int64(rel.Len()) {
		return false
	}
	t := rel.Tuple(int(row.ID - 1))
	schema := rel.Schema()
	if t.ID != row.ID || len(row.Values) != schema.Len() {
		return false
	}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		got, ok := row.Values[a.Name]
		if !ok {
			return false
		}
		if a.Kind == relation.Categorical {
			label, _ := a.Category(t.Values[i])
			if s, ok := got.(string); !ok || s != label {
				return false
			}
			continue
		}
		if f, ok := got.(float64); !ok || f != t.Values[i] {
			return false
		}
	}
	return true
}

// runSession plays one session: each step is a query plus up to its
// nexts pages, stopping early on an exhausted cursor, a failed request or
// (for clock-cut traffic) the deadline.
func (c *conn) runSession(s session, cursors *atomic.Int32, deadline time.Time, fixed bool) {
	c.fresh()
	late := func() bool { return !fixed && time.Now().After(deadline) }
	for _, st := range s.steps {
		if late() {
			return
		}
		doc, err := c.query(c.e.tr.forms[st.form])
		if err != nil {
			continue
		}
		cursor := cursors.Add(1)
		c.record(st.form, cursor, doc)
		for i := 0; i < st.nexts && !doc.Exhausted; i++ {
			if late() {
				return
			}
			if doc, err = c.next(doc.QID); err != nil {
				break
			}
			c.record(st.form, cursor, doc)
		}
	}
}

// drive runs the closed loop: clients each keep one request in flight,
// taking session after session until the traffic is exhausted or, for
// clock-cut traffic, the deadline passes. It returns the merged log and
// the phase's start and end, in nanoseconds since the log's epoch.
func drive(e *env, seconds int) (rec *recorder, start, end int64) {
	var (
		nextSession atomic.Int64
		cursors     atomic.Int32
		wg          sync.WaitGroup
		recs        = make([]*recorder, clients)
		epoch       = time.Now()
	)
	if e.spans != nil {
		epoch = e.spans.epoch
	}
	began := time.Now()
	deadline := began.Add(time.Duration(seconds) * time.Second)
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(id int, rec *recorder) {
			defer wg.Done()
			conns := make([]*conn, len(e.replicas))
			for r := range conns {
				conns[r] = &conn{e: e, base: e.replicas[r].url, epoch: epoch, rec: rec, traced: e.spans != nil,
					prefix: "c" + strconv.Itoa(id) + "." + strconv.Itoa(r) + "-"}
			}
			for {
				s, ok := e.tr.session(int(nextSession.Add(1) - 1))
				if !ok || (!e.tr.fixed && time.Now().After(deadline)) {
					return
				}
				conns[s.replica%len(conns)].runSession(s, &cursors, deadline, e.tr.fixed)
			}
		}(i, recs[i])
	}
	wg.Wait()
	end = time.Since(epoch).Nanoseconds()
	merged := &recorder{}
	for _, r := range recs {
		merged.reqs = append(merged.reqs, r.reqs...)
		merged.pages = append(merged.pages, r.pages...)
		merged.sessions += r.sessions
		merged.errs = append(merged.errs, r.errs...)
	}
	return merged, began.Sub(epoch).Nanoseconds(), end
}
