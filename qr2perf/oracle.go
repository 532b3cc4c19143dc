package main

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wdbhttp"
)

// scoreTol is the score tolerance of the core tests' oracle
// (assertMatchesBruteForce): positions inside a tie group may hold any
// member of the group.
const scoreTol = 1e-9

// oracle checks served pages against core.BruteForceTop with the rule
// assertMatchesBruteForce applies: every row matches the form's
// predicate, no row repeats across a cursor's pages, each page has the
// oracle's row count, and the score at each position is within scoreTol
// of the oracle's. Scores are bound with the normalisation
// core.Reranker.Normalization discovers on an identical catalog.
type oracle struct {
	cats  map[string]*datagen.Catalog
	norms map[string]ranking.Normalization
}

func newOracle(ctx context.Context, cats map[string]*datagen.Catalog) (*oracle, error) {
	o := &oracle{cats: cats, norms: map[string]ranking.Normalization{}}
	for _, name := range sortedKeys(cats) {
		cat := cats[name]
		db, err := hidden.NewLocal(name, cat.Rel, systemK, cat.Rank)
		if err != nil {
			return nil, err
		}
		r, err := core.New(db, core.Options{Algorithm: core.Rerank})
		if err != nil {
			return nil, err
		}
		norm, err := r.Normalization(ctx)
		if err != nil {
			return nil, fmt.Errorf("oracle normalisation of %s: %w", name, err)
		}
		o.norms[name] = norm
	}
	return o, nil
}

// bound is a form resolved against its catalog.
type bound struct {
	rel  *relation.Relation
	pred relation.Predicate
	fn   ranking.Function
	sc   *ranking.Scorer
	k    int
}

func (o *oracle) bind(f form) (*bound, error) {
	cat, ok := o.cats[f.source]
	if !ok {
		return nil, fmt.Errorf("unknown source %q", f.source)
	}
	schema := cat.Rel.Schema()
	pred, err := wdbhttp.ParseFilterForm(schema, f.values)
	if err != nil {
		return nil, err
	}
	fn, err := ranking.Parse(f.values.Get("rank"))
	if err != nil {
		return nil, err
	}
	sc, err := ranking.Bind(fn, schema, o.norms[f.source])
	if err != nil {
		return nil, err
	}
	k, err := strconv.Atoi(f.values.Get("k"))
	if err != nil || k <= 0 {
		return nil, fmt.Errorf("bad page size in %s", f)
	}
	return &bound{rel: cat.Rel, pred: pred, fn: fn, sc: sc, k: k}, nil
}

// tuple returns the catalog tuple with the given ID.
func (b *bound) tuple(id int64) (relation.Tuple, bool) {
	if id < 1 || id > int64(b.rel.Len()) {
		return relation.Tuple{}, false
	}
	t := b.rel.Tuple(int(id - 1))
	return t, t.ID == id
}

// checkCursor checks one cursor's pages, in page order, against want,
// the oracle's top of the form (at least as deep as the deepest page).
// It returns an error per failed page (nil for a correct one) and whether
// each correct page's IDs diverge from the oracle's (score, ID) order
// inside a tie group.
func (b *bound) checkCursor(want []relation.Tuple, pages []pageRecord) (errs []error, diverged []bool) {
	errs = make([]error, len(pages))
	diverged = make([]bool, len(pages))
	seen := map[int64]bool{}
	for p, pg := range pages {
		errs[p], diverged[p] = b.checkPage(want, p, pg, seen)
	}
	return errs, diverged
}

func (b *bound) checkPage(want []relation.Tuple, p int, pg pageRecord, seen map[int64]bool) (error, bool) {
	if int(pg.page) != p+1 {
		return fmt.Errorf("page %d arrived as page %d of its cursor", pg.page, p+1), false
	}
	off := p * b.k
	n := min(b.k, max(0, len(want)-off))
	if len(pg.ids) != n {
		return fmt.Errorf("page %d: %d rows, oracle has %d", pg.page, len(pg.ids), n), false
	}
	if !pg.valuesOK {
		return fmt.Errorf("page %d: row values differ from the catalog", pg.page), false
	}
	diverged := false
	for i, id := range pg.ids {
		t, ok := b.tuple(id)
		if !ok {
			return fmt.Errorf("page %d position %d: unknown tuple %d", pg.page, i, id), false
		}
		if !b.pred.Match(t) {
			return fmt.Errorf("page %d position %d: tuple %d does not match the filter", pg.page, i, id), false
		}
		if seen[id] {
			return fmt.Errorf("page %d position %d: tuple %d repeats an earlier row of the cursor", pg.page, i, id), false
		}
		seen[id] = true
		w := want[off+i]
		if gs, ws := b.sc.Score(t), b.sc.Score(w); math.Abs(gs-ws) > scoreTol {
			return fmt.Errorf("page %d position %d: score %.12f (tuple %d), oracle %.12f (tuple %d)",
				pg.page, i, gs, id, ws, w.ID), false
		}
		if id != w.ID {
			diverged = true
		}
	}
	return nil, diverged
}

// verdict is the outcome of checking a run.
type verdict struct {
	pages          int
	mismatches     int // pages that failed the check
	tieDivergences int // correct pages whose IDs differ from the oracle's order
	examples       []string
}

// check groups the pages by cursor and checks every cursor of every form.
func (o *oracle) check(forms []form, pages []pageRecord) (verdict, error) {
	byCursor := map[int32][]pageRecord{}
	for _, pg := range pages {
		byCursor[pg.cursor] = append(byCursor[pg.cursor], pg)
	}
	byForm := map[int32][][]pageRecord{}
	depth := map[int32]int{}
	for _, cp := range byCursor {
		sort.Slice(cp, func(i, j int) bool { return cp[i].page < cp[j].page })
		f := cp[0].form
		byForm[f] = append(byForm[f], cp)
		depth[f] = max(depth[f], len(cp))
	}
	v := verdict{pages: len(pages)}
	for f, cursors := range byForm {
		b, err := o.bind(forms[f])
		if err != nil {
			return v, fmt.Errorf("oracle: %s: %w", forms[f], err)
		}
		want := core.BruteForceTop(b.rel, b.pred, b.sc, depth[f]*b.k)
		for _, cp := range cursors {
			errs, diverged := b.checkCursor(want, cp)
			for i, err := range errs {
				switch {
				case err != nil:
					v.mismatches++
					if len(v.examples) < 5 {
						v.examples = append(v.examples, fmt.Sprintf("%s: %v", forms[f], err))
					}
				case diverged[i]:
					v.tieDivergences++
				}
			}
		}
	}
	return v, nil
}

// selfTestForms are the self-test's forms: a ranking with distinct scores
// for the corruptions, and the tie-heavy lwratio ranking (most stones at
// exactly 1.00) for the tie permutation.
var selfTestForms = [2]string{
	"source=bluenile&rank=price+-+0.1*carat+-+0.5*depth&k=10&min.carat=0.5",
	"source=bluenile&rank=lwratio&k=10&min.carat=0.7",
}

// selfTest proves the check is live: a correct two-page cursor passes; a
// replaced, dropped, non-matching, repeated or score-reordered row fails;
// a permutation inside a tie group passes and counts as a divergence.
func (o *oracle) selfTest() error {
	forms := parseForms(selfTestForms[:])
	distinct, err := o.bind(forms[0])
	if err != nil {
		return err
	}
	want := core.BruteForceTop(distinct.rel, distinct.pred, distinct.sc, 3*distinct.k)
	if len(want) < 3*distinct.k {
		return fmt.Errorf("self-test form %s has only %d matches", forms[0], len(want))
	}
	k := distinct.k
	cursor := func(ids []int64) []pageRecord {
		var pages []pageRecord
		for p := 0; p*k < len(ids); p++ {
			pages = append(pages, pageRecord{page: int32(p + 1), valuesOK: true, ids: ids[p*k : min(len(ids), (p+1)*k)]})
		}
		return pages
	}
	ids := func(ts []relation.Tuple) []int64 {
		out := make([]int64, len(ts))
		for i, t := range ts {
			out[i] = t.ID
		}
		return out
	}
	outcome := func(b *bound, want []relation.Tuple, ids []int64) (failed bool, divergences int) {
		errs, diverged := b.checkCursor(want, cursor(ids))
		for i, err := range errs {
			if err != nil {
				failed = true
			} else if diverged[i] {
				divergences++
			}
		}
		return failed, divergences
	}

	good := ids(want[:2*k])
	if failed, div := outcome(distinct, want, good); failed || div != 0 {
		return fmt.Errorf("self-test: a correct cursor failed the check (divergences %d)", div)
	}
	nonMatching := int64(-1)
	for i := 0; i < distinct.rel.Len(); i++ {
		if t := distinct.rel.Tuple(i); !distinct.pred.Match(t) {
			nonMatching = t.ID
			break
		}
	}
	corrupt := map[string]func([]int64) []int64{
		"replaced row": func(c []int64) []int64 { c[3] = want[3*k-1].ID; return c },
		"dropped row":  func(c []int64) []int64 { return append(c[:4:4], c[5:]...) },
		"non-matching": func(c []int64) []int64 { c[2] = nonMatching; return c },
		"repeated row": func(c []int64) []int64 { c[k] = c[0]; return c },
		"reordered scores": func(c []int64) []int64 {
			c[0], c[k-1] = c[k-1], c[0]
			return c
		},
	}
	for _, name := range sortedKeys(corrupt) {
		c := corrupt[name](append([]int64(nil), good...))
		if failed, _ := outcome(distinct, want, c); !failed {
			return fmt.Errorf("self-test: a cursor with a %s passed the check", name)
		}
	}

	ties, err := o.bind(forms[1])
	if err != nil {
		return err
	}
	tieWant := core.BruteForceTop(ties.rel, ties.pred, ties.sc, ties.k)
	for i := 0; i+1 < len(tieWant); i++ {
		if ties.sc.Score(tieWant[i]) != ties.sc.Score(tieWant[i+1]) {
			continue
		}
		c := ids(tieWant)
		c[i], c[i+1] = c[i+1], c[i]
		if failed, div := outcome(ties, tieWant, c); failed || div != 1 {
			return fmt.Errorf("self-test: a permutation inside a tie group gave failed=%v divergences=%d, want a pass with 1", failed, div)
		}
		return nil
	}
	return fmt.Errorf("self-test form %s has no tie group on its first page", forms[1])
}

// boundaryMisses probes a defect of internal/core: the engine normalises
// a filter bound on a ranking attribute and denormalises it again for the
// web query, and for some values the round trip moves the bound by one
// ulp, so a tuple lying exactly on the bound is never returned. For each
// numeric attribute of each source, it takes the first tuple whose value
// the round trip moves inward, puts the bound on that value with the
// attribute as the ranking (so the tuple belongs on the first page), and
// reruns the query through core directly. It returns the probes whose
// first page fails the oracle, out of the probes run.
func (o *oracle) boundaryMisses(ctx context.Context) (misses, probes int, err error) {
	for _, name := range sortedKeys(o.cats) {
		cat, norm := o.cats[name], o.norms[name]
		db, err := hidden.NewLocal(name, cat.Rel, systemK, cat.Rank)
		if err != nil {
			return 0, 0, err
		}
		r, err := core.New(db, core.Options{Algorithm: core.Rerank, Normalization: &norm})
		if err != nil {
			return 0, 0, err
		}
		schema := cat.Rel.Schema()
		for _, a := range schema.NumericIndexes() {
			attr := schema.Attr(a)
			for _, upper := range []bool{false, true} {
				v, ok := driftingValue(cat.Rel, norm, a, upper)
				if !ok {
					continue
				}
				// A lower bound is lost when the round trip raises it, an
				// upper bound when it lowers it; the ranking puts tuples
				// on the bound first.
				rank, key := attr.Name, "min."+attr.Name
				if upper {
					rank, key = "-"+attr.Name, "max."+attr.Name
				}
				vals := url.Values{"source": {name}, "k": {strconv.Itoa(pageSize)}, "rank": {rank},
					key: {strconv.FormatFloat(v, 'g', -1, 64)}}
				b, err := o.bind(newForm(vals))
				if err != nil {
					return 0, 0, err
				}
				st, err := r.Rerank(ctx, core.Query{Pred: b.pred, Rank: b.fn})
				if err != nil {
					return 0, 0, err
				}
				got, err := st.NextN(ctx, b.k)
				if err != nil {
					return 0, 0, err
				}
				ids := make([]int64, len(got))
				for i, t := range got {
					ids[i] = t.ID
				}
				want := core.BruteForceTop(b.rel, b.pred, b.sc, b.k)
				probes++
				if err, _ := b.checkPage(want, 0, pageRecord{page: 1, valuesOK: true, ids: ids}, map[int64]bool{}); err != nil {
					misses++
				}
			}
		}
	}
	return misses, probes, nil
}

// driftingValue returns the first catalog value of attribute a that the
// normalise/denormalise round trip moves inward: down for an upper bound,
// up for a lower one.
func driftingValue(rel *relation.Relation, norm ranking.Normalization, a int, upper bool) (float64, bool) {
	for i := 0; i < rel.Len(); i++ {
		v := rel.Tuple(i).Values[a]
		rt := norm.Denormalize(a, norm.Normalize(a, v))
		if (upper && rt < v) || (!upper && rt > v) {
			return v, true
		}
	}
	return 0, false
}
