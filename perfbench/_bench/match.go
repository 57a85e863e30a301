package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// The match workload: Cora's B source is loaded through the router, then
// matchClients closed-loop clients POST /match?k=10 with probes from
// Cora's A source, in a seeded order. It writes nothing after set-up.
const (
	matchDataSeed    = 1
	matchK           = 10
	matchClients     = 2 // = nproc of the reference host
	matchRoundProbes = 100
	matchRefRound    = 550 * time.Millisecond // one round on the reference host
	matchMinRounds   = 5
	matchTraceProbes = 200 // probes in the traced per-layer pass
	loadBatch        = 100
	setupRepeats     = 3   // set-ups per run, the last one kept for the rounds
	coraRecallFloor  = 1.0 // share of positive links found in the top 10
)

func runMatch(ctx context.Context, o options, rep *report) error {
	r, rulePath, err := loadRule(o.benchDir, coraRuleFile)
	if err != nil {
		return err
	}
	ds := datagen.Cora(matchDataSeed)
	stored := make(map[string]*entity.Entity, len(ds.B.Entities))
	for _, e := range ds.B.Entities {
		stored[e.ID] = e
	}

	var c *cluster
	defer func() { c.Close() }()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		c.Close()
		root := filepath.Join(o.workDir, fmt.Sprintf("cluster%d", i))
		clk, err := startClock()
		if err != nil {
			return err
		}
		if c, err = startCluster(ctx, o.genlinkd, rulePath, root); err != nil {
			return err
		}
		if err := loadEntities(ctx, c.router.addr, ds.B.Entities); err != nil {
			return fmt.Errorf("load Cora B: %w", err)
		}
		wall, stolen, err := clk.stop()
		if err != nil {
			return err
		}
		setups = append(setups, unstolen(wall.Seconds(), stolen))
	}
	cl := newClient()
	defer cl.close()
	if got, err := cl.statsEntities(ctx, c.router.addr); err != nil {
		return err
	} else if got != len(stored) {
		rep.failf("match: /stats counts %d entities after loading %d", got, len(stored))
	}

	// Probes are decoded copies, as the service sees them.
	perm := rand.New(rand.NewSource(o.seed)).Perm(len(ds.A.Entities))
	n := rounds(o.seconds, matchRefRound, matchMinRounds)
	total := n * matchRoundProbes
	probes := make([]*entity.Entity, total)
	bodies := make([][]byte, total)
	for i := range probes {
		src := ds.A.Entities[perm[i%len(perm)]]
		if bodies[i], err = json.Marshal(src); err != nil {
			return err
		}
		probes[i] = src.Clone()
	}

	answers := make([][]matchLink, total)
	lat := make([]float64, total)
	var wallS, roundS, stolenS []float64
	var latAdj [][]float64
	for rd := 0; rd < n; rd++ {
		lo, hi := rd*matchRoundProbes, (rd+1)*matchRoundProbes
		clk, err := startClock()
		if err != nil {
			return err
		}
		if err := closedLoop(ctx, rep, nil, c.router.addr, bodies, answers, lat, lo, hi); err != nil {
			return err
		}
		wall, stolen, err := clk.stop()
		if err != nil {
			return err
		}
		wallS = append(wallS, wall.Seconds())
		roundS = append(roundS, unstolen(wall.Seconds(), stolen))
		stolenS = append(stolenS, stolen)
		adj := make([]float64, 0, matchRoundProbes)
		for _, l := range lat[lo:hi] {
			adj = append(adj, unstolen(l, stolen))
		}
		latAdj = append(latAdj, adj)
	}
	rss, err := c.rssPeakMB()
	if err != nil {
		return err
	}

	rc := newRecallCounter(ds.Refs.Positive)
	bad := 0
	for i, links := range answers {
		if err := checkMatch(r, stored, rule.MatchThreshold, matchK, probes[i], links); err != nil {
			if bad == 0 {
				rep.failf("match: %v", err)
			}
			bad++
		}
		rc.observe(probes[i].ID, links)
	}
	if bad > 1 {
		rep.failf("match: %d of %d answers failed the oracle", bad, total)
	}
	if rec := rc.recall(); !(rec >= coraRecallFloor) {
		rep.failf("match: recall %.4f of positive links in the top %d, below the floor %.2f", rec, matchK, coraRecallFloor)
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rss_peak_mb"] = rss
	rep.e2e["round_s"] = median(roundS)
	p50, tailMs, level, _ := perRound(latAdj)
	rawP50, rawTail, _, _ := perRound(chunks(lat, matchRoundProbes))
	rep.e2e["op_p50_ms"] = p50
	rep.notef("match: %d rounds × %d probes by %d clients, %.1f%% of CPU time stolen (median round): unstolen %.1f req/s, p50 %.3f ms, p%g %.3f ms; wall %.1f req/s, p50 %.3f ms, p%g %.3f ms; %d requests; recall %.4f; set-up %s s",
		n, matchRoundProbes, matchClients, 100*median(stolenS), float64(matchRoundProbes)/median(roundS), p50, 100*level, tailMs,
		float64(matchRoundProbes)/median(wallS), rawP50, 100*level, rawTail, total, rc.recall(), fmtFloats(setups))

	if rep.tr != nil {
		return traceMatch(ctx, rep, c, r, stored, probes, bodies, lat)
	}
	return nil
}

// loadEntities upserts entities through addr in loadBatch batches.
func loadEntities(ctx context.Context, addr string, entities []*entity.Entity) error {
	cl := newClient()
	defer cl.close()
	for lo := 0; lo < len(entities); lo += loadBatch {
		if err := cl.postEntities(ctx, addr, entities[lo:min(lo+loadBatch, len(entities))]); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop sends requests lo..hi-1 from matchClients clients, each
// sending its next request when the previous one has answered, and
// stores every answer and latency (ms) at the request's index.
func closedLoop(ctx context.Context, rep *report, tr *tracer, addr string, bodies [][]byte, answers [][]matchLink, lat []float64, lo, hi int) error {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		first  error
		once   sync.Once
	)
	next.Store(int64(lo))
	for w := 0; w < matchClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi || ctx.Err() != nil {
					return
				}
				sp := tr.begin("linkrouter.POST /match", int64(i), -1)
				t0 := time.Now()
				links, err := cl.postMatch(ctx, addr, bodies[i], matchK)
				lat[i] = ms(time.Since(t0))
				tr.end(sp)
				if err != nil {
					failed.Add(1)
					once.Do(func() { first = err })
					continue
				}
				answers[i] = links
			}
		}()
	}
	wg.Wait()
	rep.attempted += int64(hi - lo)
	rep.failed += failed.Load()
	if err := ctx.Err(); err != nil {
		return err
	}
	if first != nil {
		return fmt.Errorf("%d of %d /match requests failed, first: %w", failed.Load(), hi-lo, first)
	}
	return nil
}

// traceMatch takes the match workload's per-layer numbers. One probe at
// a time, it times the routed request, the same request sent directly to
// each partition leader, and in-process Query, Candidates, prefilter
// Bound, Score and MergeTopK on twins of the leaders' indexes (same rule,
// options, shard count and partition of the corpus).
func traceMatch(ctx context.Context, rep *report, c *cluster, r *rule.Rule, stored map[string]*entity.Entity, probes []*entity.Entity, bodies [][]byte, untracedLat []float64) error {
	tr := rep.tr
	opts := matching.Options{Blocker: matching.BlockerByName("multipass")}
	twins := make([]*linkindex.ShardedIndex, partitions)
	parts := make([][]*entity.Entity, partitions)
	for _, e := range stored {
		p := linkindex.PartitionOf(e.ID, partitions)
		parts[p] = append(parts[p], e)
	}
	for p := range twins {
		twins[p] = linkindex.NewSharded(r, 0, opts)
		twins[p].BulkLoad(parts[p])
	}
	compiled := evalengine.Compile(r)
	var lc layerCounters
	counted := evalengine.Compile(lc.countedRule(r))
	scorers := make([]*evalengine.SharedScorer, partitions)
	countedScorers := make([]*evalengine.SharedScorer, partitions)
	for p := range scorers {
		scorers[p] = compiled.NewSharedScorer()
		countedScorers[p] = counted.NewSharedScorer()
	}
	threshold := rule.MatchThreshold

	// Tracing overhead: a traced round of the closed loop against the
	// untraced ones.
	tracedLat := make([]float64, matchRoundProbes)
	if err := closedLoop(ctx, rep, tr, c.router.addr, bodies[:matchRoundProbes], make([][]matchLink, matchRoundProbes), tracedLat, 0, matchRoundProbes); err != nil {
		return err
	}
	rep.layer["tracing.overhead_ratio"] = median(tracedLat) / median(untracedLat)

	cl := newClient()
	defer cl.close()
	var (
		cands, pruned, scored, links int
		scoreNs                      time.Duration
		mergeUs                      []float64
	)
	m := min(matchTraceProbes, len(probes))
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		op := int64(matchRoundProbes + i)
		probe := probes[i]
		root := tr.begin("match.probe", op, -1)

		sp := tr.begin("linkrouter.POST /match", op, root)
		routed, err := cl.postMatch(ctx, c.router.addr, bodies[i], matchK)
		tr.end(sp)
		rep.attempted++
		if err != nil {
			rep.failed++
			return err
		}
		if err := checkMatch(r, stored, threshold, matchK, probe, routed); err != nil {
			rep.failf("match trace: %v", err)
		}
		perNode := make([][]matching.Link, partitions)
		for p := 0; p < partitions; p++ {
			sp := tr.begin(fmt.Sprintf("genlinkd[%d].POST /match", p), op, root)
			_, err := cl.postMatch(ctx, c.leaders[p].addr, bodies[i], matchK)
			tr.end(sp)
			rep.attempted++
			if err != nil {
				rep.failed++
				return err
			}
			sp = tr.begin(fmt.Sprintf("linkindex[%d].Query", p), op, root)
			perNode[p] = twins[p].Query(probe, matchK)
			tr.end(sp)

			sp = tr.begin("linkindex.Candidates", op, root)
			cs := twins[p].Candidates(probe)
			tr.end(sp)
			cands += len(cs)
			sp = tr.begin("evalengine.Bound+Score", op, root)
			for _, cand := range cs {
				if scorers[p].Bound(probe, cand) < threshold {
					pruned++
				}
				t0 := time.Now()
				s := scorers[p].Score(probe, cand)
				scoreNs += time.Since(t0)
				scored++
				if s >= threshold {
					links++
				}
				countedScorers[p].Score(probe, cand)
			}
			tr.end(sp)
			scorers[p].Invalidate(probe)
			countedScorers[p].Invalidate(probe)
		}
		const mergeReps = 100
		sp = tr.begin("linkindex.MergeTopK", op, root)
		t0 := time.Now()
		var merged []matching.Link
		for j := 0; j < mergeReps; j++ {
			merged = linkindex.MergeTopK(perNode, matchK)
		}
		mergeUs = append(mergeUs, float64(time.Since(t0))/1e3/mergeReps)
		tr.end(sp)
		tr.end(root)
		if !sameLinks(routed, toMatchLinks(merged)) {
			rep.failf("match trace: probe %s: routed answer differs from the merged in-process twins", probe.ID)
		}
	}
	tr.add("linkindex.candidates", float64(cands))
	tr.add("evalengine.prefilter_pruned", float64(pruned))
	tr.add("evalengine.scored", float64(scored))
	tr.add("evalengine.links", float64(links))

	routedP50 := median(tr.durationsMs("linkrouter.POST /match")[matchRoundProbes:])
	var slowestLeg, httpOver float64
	var queryMs []float64
	for p := 0; p < partitions; p++ {
		leg := median(tr.durationsMs(fmt.Sprintf("genlinkd[%d].POST /match", p)))
		q := tr.durationsMs(fmt.Sprintf("linkindex[%d].Query", p))
		slowestLeg = max(slowestLeg, leg)
		httpOver += (leg - median(q)) / partitions
		queryMs = append(queryMs, q...)
	}
	fm := float64(m)
	rep.layer["linkrouter.overhead_ms_p50"] = routedP50 - slowestLeg
	rep.layer["genlinkd.http_overhead_ms_p50"] = httpOver
	rep.layer["linkindex.query_ms_p50"] = median(queryMs)
	rep.layer["linkindex.candidates_per_query"] = float64(cands) / fm
	rep.layer["linkindex.candidates_ms_p50"] = median(tr.durationsMs("linkindex.Candidates"))
	rep.layer["evalengine.prefilter_pruned_per_query"] = float64(pruned) / fm
	rep.layer["evalengine.scored_per_query"] = float64(scored) / fm
	rep.layer["evalengine.links_per_query"] = float64(links) / fm
	rep.layer["evalengine.useful_score_ratio"] = float64(links) / float64(scored)
	rep.layer["evalengine.score_us_mean"] = float64(scoreNs) / 1e3 / float64(scored)
	rep.layer["similarity.distance_calls_per_query"] = float64(lc.distCalls.Load()) / fm
	rep.layer["similarity.distance_s_per_query"] = float64(lc.distNs.Load()) / 1e9 / fm
	rep.layer["linkindex.merge_us_p50"] = median(mergeUs)
	rep.notef("match trace over %d probes: routed p50 %.3f ms, slowest direct leg p50 %.3f ms, in-process Query p50 %.3f ms; per query %.1f candidates, %.1f below the prefilter bound, %.1f scored, %.2f links",
		m, routedP50, slowestLeg, median(queryMs), float64(cands)/fm, float64(pruned)/fm, float64(scored)/fm, float64(links)/fm)
	return nil
}

func toMatchLinks(ls []matching.Link) []matchLink {
	out := make([]matchLink, len(ls))
	for i, l := range ls {
		out[i] = matchLink{ID: l.BID, Score: l.Score}
	}
	return out
}
