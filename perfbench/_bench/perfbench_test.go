package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// oracleFixture is a title-Levenshtein rule, a small corpus and the
// correct top-k answer for one probe, scored by the tree walk.
func oracleFixture(t *testing.T) (*rule.Rule, map[string]*entity.Entity, *entity.Entity, []matchLink) {
	t.Helper()
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), similarity.Levenshtein(), 10)))
	stored := make(map[string]*entity.Entity)
	for id, title := range map[string]string{"b1": "genetic programming", "b2": "genetic programing", "b3": "genetic progrmming", "b4": "unrelated"} {
		e := entity.New(id)
		e.Add("title", title)
		stored[id] = e
	}
	probe := entity.New("a1")
	probe.Add("title", "genetic programming")
	var links []matchLink
	for _, id := range []string{"b1", "b2", "b3"} {
		links = append(links, matchLink{ID: id, Score: r.Evaluate(probe, stored[id])})
	}
	// b2 and b3 tie (one edit each): ascending id breaks the tie.
	if err := checkMatch(r, stored, rule.MatchThreshold, 10, probe, links); err != nil {
		t.Fatalf("the correct answer is rejected: %v", err)
	}
	return r, stored, probe, links
}

func TestOracleRejectsPerturbedScore(t *testing.T) {
	r, stored, probe, links := oracleFixture(t)
	links[1].Score += 1e-6
	if err := checkMatch(r, stored, rule.MatchThreshold, 10, probe, links); err == nil {
		t.Fatal("a score off by 1e-6 passed the oracle")
	}
}

func TestOracleRejectsReorderedResult(t *testing.T) {
	r, stored, probe, links := oracleFixture(t)
	links[1], links[2] = links[2], links[1] // tied scores, ids now descending
	if err := checkMatch(r, stored, rule.MatchThreshold, 10, probe, links); err == nil {
		t.Fatal("a reordered answer passed the oracle")
	}
	_, _, _, links = oracleFixture(t)
	links[0], links[1] = links[1], links[0] // lower score first
	if err := checkMatch(r, stored, rule.MatchThreshold, 10, probe, links); err == nil {
		t.Fatal("an answer out of score order passed the oracle")
	}
}

func TestOracleRejectsDuplicatesAndOverflow(t *testing.T) {
	r, stored, probe, links := oracleFixture(t)
	if err := checkMatch(r, stored, rule.MatchThreshold, 2, probe, links); err == nil {
		t.Fatal("three links for k=2 passed the oracle")
	}
	dup := append(links[:1:1], links[0])
	if err := checkMatch(r, stored, rule.MatchThreshold, 10, probe, dup); err == nil {
		t.Fatal("a duplicated link passed the oracle")
	}
}

// TestReadBackRejectsDroppedWrite serves every acknowledged entity but
// one, and one at a stale version, and expects both to be reported.
func TestReadBackRejectsDroppedWrite(t *testing.T) {
	want := make(map[string]*entity.Entity)
	served := make(map[string]*entity.Entity)
	for _, id := range []string{"drugbank/0001", "drugbank/0002", "drugbank/0003"} {
		e := entity.New(id)
		e.Add("name", "v2")
		want[id] = e
		served[id] = e
	}
	delete(served, "drugbank/0002") // the dropped write
	stale := entity.New("drugbank/0003")
	stale.Add("name", "v1")
	served["drugbank/0003"] = stale
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/entities/")
		e, ok := served[id]
		if !ok {
			http.NotFound(w, r)
			return
		}
		if err := json.NewEncoder(w).Encode(e); err != nil {
			t.Errorf("encode %s: %v", id, err)
		}
	}))
	defer srv.Close()

	rep := &report{}
	if err := checkReadBack(context.Background(), rep, strings.TrimPrefix(srv.URL, "http://"), want); err != nil {
		t.Fatal(err)
	}
	if len(rep.checks) != 1 || !strings.Contains(rep.checks[0], "2 of 3 ids wrong") {
		t.Fatalf("checks = %q, want one report of 2 wrong ids", rep.checks)
	}
}

func TestTailRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(sample(39)); ok {
		t.Fatal("39 samples reported a tail; under 40 only the median is reported")
	}
	for _, c := range []struct {
		n     int
		level float64
		value float64
	}{
		{40, 0.75, 30},    // 10 beyond p75
		{199, 0.90, 180},  // p95 would leave 9
		{200, 0.95, 190},  // exactly 10 beyond
		{999, 0.95, 950},  // p99 would leave 9
		{1000, 0.99, 990}, // exactly 10 beyond
		{20000, 0.999, 19980},
	} {
		level, v, ok := tail(sample(c.n))
		if !ok || level != c.level || v != c.value {
			t.Errorf("tail of %d samples = p%g %v (ok %v), want p%g %v", c.n, 100*level, v, ok, 100*c.level, c.value)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopCountsFromDueTime stalls one request and expects the
// requests due during the stall to carry the wait in their latency.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		stall  = 200 * time.Millisecond
	)
	stop := make(chan struct{})
	var attempted, failed atomic.Int64
	send := func(i int) error {
		switch {
		case i == 2:
			time.Sleep(stall)
		case i == 12:
			close(stop)
		}
		return nil
	}
	lat, lag := openLoop(context.Background(), stop, period, send, &attempted, &failed)
	if len(lat) < 12 {
		t.Fatalf("%d requests completed, want at least 12", len(lat))
	}
	// Request 3 was due 10 ms after request 2 started, but could only be
	// sent when the stall ended: ~190 ms late, and its latency says so.
	if lat[3] < ms(stall-2*period) || lag[3] < ms(stall-2*period) {
		t.Errorf("request 3 after a %v stall: latency %.1f ms, lag %.1f ms; the stall does not show", stall, lat[3], lag[3])
	}
	if lat[1] > ms(stall/2) {
		t.Errorf("request 1, before the stall, took %.1f ms", lat[1])
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	root := tr.record("root", 1, -1, base, base.Add(100*time.Millisecond))
	tr.record("leg", 1, root, base.Add(10*time.Millisecond), base.Add(50*time.Millisecond))
	tr.record("leg", 1, root, base.Add(30*time.Millisecond), base.Add(70*time.Millisecond))
	s := tr.summary()
	if got := s["root"].SelfMs; got != 40 {
		t.Errorf("root self time %v ms, want 40 (100 minus the 60 its legs cover)", got)
	}
	if got := s["leg"]; got.Count != 2 || got.TotalMs != 80 {
		t.Errorf("leg summary %+v, want 2 spans totalling 80 ms", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the reported metrics and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}
