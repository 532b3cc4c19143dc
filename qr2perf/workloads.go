package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/qcache"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/service"
)

// Catalogs and engine settings shared by every workload: the BlueNile and
// Zillow catalogs qr2bench and qr2server build by default.
const (
	catalogN    = 4000
	catalogSeed = 7 // qr2server's default generator seed; Zillow uses seed+1
	systemK     = 50
	pageSize    = 10
	clients     = 2
	// coldRTT is cold_browse's simulated web-database round trip.
	coldRTT = 5 * time.Millisecond
	// coldSessionsPerSecond sizes cold_browse's fixed work: about one
	// second of traffic per unit at the reference speed, so a run lasts
	// roughly --seconds. Each session has coldSteps steps.
	coldSessionsPerSecond = 22
	coldSteps             = 2
)

// workload is one traffic mix; BENCHMARK.json and METRICS.md say why
// each exists.
type workload struct {
	name     string
	replicas int
	rtt      time.Duration
	// traffic builds the run's sessions from the seed.
	traffic func(cats map[string]*datagen.Catalog, seed int64, seconds int) *traffic
	// warm runs during setup, after the services are built.
	warm func(e *env) error
}

var workloads = map[string]*workload{
	"pool_hot": {
		name:     "pool_hot",
		replicas: 1,
		traffic:  hotTraffic,
		warm:     warmHot,
	},
	"cold_browse": {
		name:     "cold_browse",
		replicas: 1,
		rtt:      coldRTT,
		traffic:  coldTraffic,
		warm:     warmNormalisation,
	},
	"ring_forward": {
		name:     "ring_forward",
		replicas: 3,
		traffic:  hotTraffic,
		warm:     warmHot,
	},
}

// form is one /api/query request body.
type form struct {
	source string
	values url.Values
	body   string // values, encoded once
}

func newForm(values url.Values) form {
	return form{source: values.Get("source"), values: values, body: values.Encode()}
}

// step is one query followed by nexts /api/next calls on its cursor.
type step struct {
	form  int // index into traffic.forms
	nexts int
}

// session is one user: a fresh cookie jar pinned to one replica.
type session struct {
	replica int
	steps   []step
}

// traffic is a run's seeded input. Session i is a pure function of the
// seed and i, so the sequence does not depend on which client takes it.
type traffic struct {
	forms []form
	// session returns session i, or false when the work is exhausted.
	session func(i int) (session, bool)
	// fixed is true when the work is a fixed list of sessions rather than
	// a stream cut by the clock.
	fixed bool
}

// hotForms is pool_hot's form set in warm-up order: broad forms before
// the narrower ones containment serves from them. The first two are the
// hot 20% that take 80% of the steps. lwratio (20% of stones at exactly
// 1.00) and carat at 0.01 resolution are the tie-heavy rankings.
var hotForms = []string{
	"source=bluenile&rank=price&k=10&min.carat=1",
	"source=zillow&rank=price&k=10&min.beds=3",
	"source=bluenile&rank=-price&k=10&max.price=5000",
	"source=bluenile&rank=price+-+0.1*carat+-+0.5*depth&k=10&min.carat=0.5",
	"source=bluenile&algo=ta&rank=price+%2B+lwratio&k=10&max.carat=2",
	"source=bluenile&rank=price&k=10&min.carat=1.5",
	"source=bluenile&rank=lwratio&k=10&min.carat=0.7",
	"source=bluenile&rank=carat&k=10&max.price=20000",
	"source=zillow&rank=-sqft&k=10&max.price=900000",
	"source=zillow&rank=price+-+0.3*sqft&k=10&min.baths=2",
}

// hotShare of steps pick one of the first hotCount forms.
const (
	hotCount = 2
	hotShare = 0.8
)

func parseForms(raw []string) []form {
	out := make([]form, len(raw))
	for i, s := range raw {
		v, err := url.ParseQuery(s)
		if err != nil {
			panic(fmt.Sprintf("bad built-in form %q: %v", s, err))
		}
		out[i] = newForm(v)
	}
	return out
}

func sessionRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(i)))
}

// hotTraffic is an endless stream of sessions of 3-5 steps over
// hotForms, 80/20 skewed, each step with 0-2 next pages. Sessions are
// pinned round-robin across replicas.
func hotTraffic(_ map[string]*datagen.Catalog, seed int64, _ int) *traffic {
	forms := parseForms(hotForms)
	return &traffic{
		forms: forms,
		session: func(i int) (session, bool) {
			r := sessionRand(seed, i)
			s := session{replica: i, steps: make([]step, 3+r.IntN(3))}
			for j := range s.steps {
				f := r.IntN(hotCount)
				if r.Float64() >= hotShare {
					f = hotCount + r.IntN(len(forms)-hotCount)
				}
				s.steps[j] = step{form: f, nexts: r.IntN(3)}
			}
			return s, true
		},
	}
}

// coldTraffic is a fixed list of sessions of coldSteps steps over the
// cold form pool: the seed shuffles the pool and cuts it into sessions,
// so every seed runs the same forms to the same depths, in its own order
// and grouping.
func coldTraffic(cats map[string]*datagen.Catalog, seed int64, seconds int) *traffic {
	pool := coldPool(cats, seconds*coldSessionsPerSecond*coldSteps)
	perm := rand.New(rand.NewPCG(uint64(seed), 0)).Perm(len(pool))
	tr := &traffic{fixed: true}
	sessions := make([]session, len(pool)/coldSteps)
	for i := range sessions {
		s := session{steps: make([]step, coldSteps)}
		for j := range s.steps {
			p := pool[perm[i*coldSteps+j]]
			tr.forms = append(tr.forms, p.form)
			s.steps[j] = step{form: len(tr.forms) - 1, nexts: p.nexts}
		}
		sessions[i] = s
	}
	tr.session = func(i int) (session, bool) {
		if i >= len(sessions) {
			return session{}, false
		}
		return sessions[i], true
	}
	return tr
}

// pooled is one cold form with the next pages every run asks of it.
type pooled struct {
	form  form
	nexts int
}

// coldPoolSeed generates the cold form pool. The pool is part of the
// workload's definition, like the catalogs: a run's seed orders it.
const coldPoolSeed = 7

// coldPool generates n fresh forms. The shape of form t (see formShape)
// and its next pages (0-2) cycle with t; the second ranking attribute,
// its sign and weight, the filtered attributes and the bounds are drawn.
func coldPool(cats map[string]*datagen.Catalog, n int) []pooled {
	lead := map[string][]int{}
	for _, name := range sourceNames {
		lead[name] = leadAttrs(cats[name].Rel)
	}
	r := rand.New(rand.NewPCG(coldPoolSeed, 0))
	pool := make([]pooled, n)
	for t := range pool {
		u := t / len(sourceNames)
		sh := formShape{source: sourceNames[t%len(sourceNames)], dims: 1 + u%2, filters: 1 + u/2%2,
			descending: u/4%2 == 1, attr: u / 8}
		pool[t] = pooled{form: coldForm(r, cats, sh, lead[sh.source]), nexts: t % 3}
	}
	return pool
}

// formShape is the non-random part of a cold form: its source, number of
// ranking attributes and filters, and its leading ranking attribute and
// direction. The leading attribute sets most of a form's cost, so it
// cycles rather than being drawn, over the attributes leadAttrs admits:
// a 1-D ranking on an attribute with a large tie group (beds, baths,
// lwratio) crawls hundreds of web queries, and a few such forms more or
// less would swing a run's totals by more than the bounds. Tie-heavy
// rankings stay in pool_hot and as second ranking attributes here.
type formShape struct {
	source        string
	dims, filters int
	descending    bool
	attr          int // index into the source's lead attributes, modulo their count
}

// sourceNames is the fixed source order generators draw from.
var sourceNames = []string{"bluenile", "zillow"}

// coldForm draws a valid form of the given shape: a ranking over sh.dims
// attributes, led by lead[sh.attr], and range filters on sh.filters
// distinct attributes, with bounds drawn from the values of random
// catalog tuples so that min never exceeds max.
func coldForm(r *rand.Rand, cats map[string]*datagen.Catalog, sh formShape, lead []int) form {
	src := sh.source
	rel := cats[src].Rel
	schema := rel.Schema()
	numeric := schema.NumericIndexes()
	pick := func() relation.Attribute { return schema.Attr(numeric[r.IntN(len(numeric))]) }
	valueOf := func(a relation.Attribute) float64 {
		i, _ := schema.Lookup(a.Name)
		return rel.Tuple(r.IntN(rel.Len())).Values[i]
	}
	// Every catalog value lies on its attribute's resolution grid. Bounds
	// sit half a step outside the drawn values, so no tuple lies exactly
	// on a bound: the engine loses such tuples (see boundaryMisses), and
	// that defect is measured on its own rather than by chance here.
	num := func(a relation.Attribute, v float64) string {
		return strconv.FormatFloat(v, 'f', decimals(a.Resolution/2), 64)
	}

	v := url.Values{"source": {src}, "k": {strconv.Itoa(pageSize)}}
	first := schema.Attr(lead[sh.attr%len(lead)])
	expr := first.Name
	if sh.descending {
		expr = "-" + expr
	}
	if sh.dims == 2 {
		second := pick()
		for second.Name == first.Name {
			second = pick()
		}
		sign := " + "
		if r.IntN(2) == 0 {
			sign = " - "
		}
		weights := []string{"0.2", "0.5", "1"}
		expr += sign + weights[r.IntN(len(weights))] + "*" + second.Name
	}
	v.Set("rank", expr)
	filtered := map[string]bool{}
	for f := sh.filters; f > 0; f-- {
		a := pick()
		for filtered[a.Name] {
			a = pick()
		}
		filtered[a.Name] = true
		lo, hi := valueOf(a), valueOf(a)
		if lo > hi {
			lo, hi = hi, lo
		}
		lo, hi = lo-a.Resolution/2, hi+a.Resolution/2
		switch r.IntN(3) {
		case 0:
			v.Set("min."+a.Name, num(a, lo))
		case 1:
			v.Set("max."+a.Name, num(a, hi))
		default:
			v.Set("min."+a.Name, num(a, lo))
			v.Set("max."+a.Name, num(a, hi))
		}
	}
	return newForm(v)
}

// leadAttrs lists the numeric attributes whose largest group of equal
// values holds at most 5% of the relation, in schema order.
func leadAttrs(rel *relation.Relation) []int {
	var out []int
	for _, a := range rel.Schema().NumericIndexes() {
		count := map[float64]int{}
		largest := 0
		for i := 0; i < rel.Len(); i++ {
			v := rel.Tuple(i).Values[a]
			count[v]++
			largest = max(largest, count[v])
		}
		if largest*20 <= rel.Len() {
			out = append(out, a)
		}
	}
	return out
}

// decimals is the number of decimal places a resolution step needs.
func decimals(res float64) int {
	d := 0
	for res > 0 && res < 1 && d < 6 {
		res *= 10
		d++
	}
	return d
}

// catalogs builds the run's two catalogs.
func catalogs() map[string]*datagen.Catalog {
	return map[string]*datagen.Catalog{
		"bluenile": datagen.BlueNile(catalogN, catalogSeed),
		"zillow":   datagen.Zillow(catalogN, catalogSeed+1),
	}
}

// replica is one service instance on a loopback listener.
type replica struct {
	srv *service.Server
	ts  *httptest.Server
	url string
}

// env is one built deployment: the replicas plus the probes installed in
// them (probes are nil in an untraced environment).
type env struct {
	cats     map[string]*datagen.Catalog
	replicas []*replica
	locals   []*hidden.Local
	hidden   []*hiddenProbe
	stores   []*storeProbe
	spans    *spanLog
	tr       *traffic // set by the caller before the timed phase
	client   *http.Client
	stop     context.CancelFunc
}

// lateHandler lets a listener start before the service it serves exists:
// a ring needs every replica's URL before any replica is built.
type lateHandler struct{ h atomic.Pointer[http.Handler] }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "replica not started", http.StatusServiceUnavailable)
}

// probeSet selects the probes an environment installs.
type probeSet struct{ hidden, store, handler bool }

var (
	noProbes  = probeSet{}
	allProbes = probeSet{hidden: true, store: true, handler: true}
)

// buildEnv builds the catalogs and services, configured as qr2server's
// defaults with in-memory stores, and runs the workload's warm-up. The
// probes in ps front every source (hiddenProbe), every dense store
// (storeProbe) and every replica's handler (handlerProbe).
func buildEnv(w *workload, ps probeSet) (*env, error) {
	e := &env{cats: catalogs()}
	if ps != noProbes {
		e.spans = newSpanLog()
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	e.stop = cancel

	lates := make([]*lateHandler, w.replicas)
	peers := map[string]string{}
	for i := range lates {
		lates[i] = &lateHandler{}
		ts := httptest.NewServer(lates[i])
		e.replicas = append(e.replicas, &replica{ts: ts, url: ts.URL})
		peers[replicaID(i)] = ts.URL
	}
	for i, rep := range e.replicas {
		cfg := service.Config{
			Sources:         map[string]service.SourceConfig{},
			Algorithm:       core.Rerank,
			SharedCachePool: true,
			CachePoolBytes:  qcache.DefaultMaxBytes,
			Resilience: resilience.Policy{
				AttemptTimeout:   10 * time.Second,
				MaxAttempts:      3,
				BreakerThreshold: 5,
				BreakerOpenFor:   10 * time.Second,
				BreakerProbes:    1,
				DegradedServe:    true,
			},
		}
		if w.replicas > 1 {
			cfg.SelfID, cfg.Peers = replicaID(i), peers
		}
		for _, name := range sourceNames {
			cat := e.cats[name]
			var opts []hidden.Option
			if w.rtt > 0 {
				opts = append(opts, hidden.WithLatency(w.rtt))
			}
			local, err := hidden.NewLocal(name, cat.Rel, systemK, cat.Rank, opts...)
			if err != nil {
				e.close()
				return nil, err
			}
			e.locals = append(e.locals, local)
			sc := service.SourceConfig{
				DB:    local,
				Cache: &qcache.Config{MaxBytes: qcache.DefaultMaxBytes},
			}
			if ps.hidden {
				hp := &hiddenProbe{DB: local, log: e.spans}
				e.hidden = append(e.hidden, hp)
				sc.DB = hp
			}
			if ps.store {
				sp := &storeProbe{Store: kvstore.NewMemory()}
				e.stores = append(e.stores, sp)
				sc.DenseStore = sp
			}
			cfg.Sources[name] = sc
		}
		srv, err := service.New(cfg)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		rep.srv = srv
		var h http.Handler = srv
		if ps.handler {
			h = handlerProbe{next: srv, log: e.spans}
		}
		lates[i].h.Store(&h)
		if node := srv.Cluster(); node != nil {
			node.Start(ctx)
		}
	}
	if err := w.warm(e); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func replicaID(i int) string { return "r" + strconv.Itoa(i) }

func (e *env) close() {
	e.stop()
	for _, rep := range e.replicas {
		rep.ts.Close()
	}
	e.client.CloseIdleConnections()
}

// webQueries sums the searches every source answered (hidden.Counter on
// the simulated databases).
func (e *env) webQueries() int64 {
	var n int64
	for _, l := range e.locals {
		n += l.QueryCount()
	}
	return n
}

// warmHot runs every hot form to its deepest page through replica 0, each
// from a fresh session, then replays them once more from one multi-step
// session, so the timed phase's lookups land on the pool. The other
// replicas of a ring only discover their normalisation.
func warmHot(e *env) error {
	forms := parseForms(hotForms)
	c := newConn(e, 0)
	for _, f := range forms {
		c.fresh()
		if err := c.warmStep(f); err != nil {
			return err
		}
	}
	c.fresh()
	for _, f := range forms {
		if err := c.warmStep(f); err != nil {
			return err
		}
	}
	for r := 1; r < len(e.replicas); r++ {
		if err := discoverNormalisation(e, r); err != nil {
			return err
		}
	}
	return nil
}

// warmNormalisation makes every source discover its normalisation, so no
// timed request pays it.
func warmNormalisation(e *env) error { return discoverNormalisation(e, 0) }

// discoverNormalisation sends replica r one query per source, on a form
// outside the traffic's forms.
func discoverNormalisation(e *env, r int) error {
	c := newConn(e, r)
	for _, name := range sourceNames {
		c.fresh()
		f := newForm(url.Values{"source": {name}, "rank": {e.cats[name].Rel.Schema().Attr(0).Name}, "k": {"1"}})
		if _, err := c.query(f); err != nil {
			return fmt.Errorf("replica %d: %s: %w", r, f, err)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders a form for error messages.
func (f form) String() string { return strings.ReplaceAll(f.body, "&", " ") }
