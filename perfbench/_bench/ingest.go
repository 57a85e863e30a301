package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// The ingest workload: on a fresh cluster each round, one closed-loop
// writer upserts DBpediaDrugBank's B source through the router in
// batches of ingestBatch (ingestInserts new entities plus value-changing
// updates of earlier ones), while an open-loop reader sends POST /match
// at readerRate through the router. After the writes one leader is
// killed with SIGKILL and restarted on its WAL directory.
const (
	ingestDataSeed  = 1
	ingestBatch     = 50
	ingestInserts   = 40
	readerRate      = 20   // reads per second, well under capacity
	ingestEntities  = 1600 // a fixed subset of the 4772 B entities, written each round
	ingestRefRound  = 3500 * time.Millisecond
	ingestMinRounds = 3
	checkProbes     = 30 // probes compared before and after the restart
)

// ingestPlan is one round's writes, the same in every round of a run.
type ingestPlan struct {
	batches  [][]*entity.Entity
	bodies   [][]byte
	final    map[string]*entity.Entity // last version of every written id
	entities int                       // upserts sent, updates included
}

// buildPlan takes a fixed subset of ingestEntities entities of src,
// orders it by the seed and cuts it into batches; every batch after the
// first also rewrites ingestBatch-ingestInserts distinct entities
// written earlier, changing the values of the properties the served rule
// reads.
func buildPlan(src []*entity.Entity, ruleProps []string, seed int64) (*ingestPlan, error) {
	perm := rand.New(rand.NewSource(ingestDataSeed)).Perm(len(src))[:min(ingestEntities, len(src))]
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	p := &ingestPlan{final: make(map[string]*entity.Entity, len(src))}
	var written []string
	version := make(map[string]int)
	for lo := 0; lo < len(perm); lo += ingestInserts {
		var batch []*entity.Entity
		picked := make(map[string]bool)
		for len(written) > 0 && len(batch) < ingestBatch-ingestInserts && len(picked) < len(written) {
			id := written[rng.Intn(len(written))]
			if picked[id] {
				continue
			}
			picked[id] = true
			version[id]++
			e := revise(p.final[id], ruleProps, version[id])
			p.final[id] = e
			batch = append(batch, e)
		}
		for _, i := range perm[lo:min(lo+ingestInserts, len(perm))] {
			e := src[i]
			p.final[e.ID] = e
			batch = append(batch, e)
			written = append(written, e.ID)
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		p.batches = append(p.batches, batch)
		p.bodies = append(p.bodies, body)
		p.entities += len(batch)
	}
	return p, nil
}

// revise returns a copy of e whose first property read by the rule has
// its values changed (or gains one, when e has none of them).
func revise(e *entity.Entity, ruleProps []string, version int) *entity.Entity {
	c := e.Clone()
	suffix := fmt.Sprintf(" rev%d", version)
	for _, p := range ruleProps {
		if vs := c.Values(p); len(vs) > 0 {
			nv := make([]string, len(vs))
			for i, v := range vs {
				nv[i] = strings.TrimSuffix(v, fmt.Sprintf(" rev%d", version-1)) + suffix
			}
			c.Set(p, nv...)
			return c
		}
	}
	if len(ruleProps) > 0 {
		c.Set(ruleProps[0], "revision"+suffix)
	}
	return c
}

// ruleProperties lists the B-side properties the rule reads.
func ruleProperties(r *rule.Rule) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range r.Comparisons() {
		rule.WalkValue(c.InputB, func(v rule.ValueOp) {
			if p, ok := v.(*rule.PropertyOp); ok && !seen[p.Property] {
				seen[p.Property] = true
				out = append(out, p.Property)
			}
		})
	}
	return out
}

// ingestRound is what one round measured.
type ingestRound struct {
	setupS, recoveryS, rssMB float64
	wallS, stolen, writeS    float64 // the writes' wall time, stolen share and unstolen time
	batchMs, readMs, lagMs   []float64
}

func runIngest(ctx context.Context, o options, rep *report) error {
	r, rulePath, err := loadRule(o.benchDir, drugsRuleFile)
	if err != nil {
		return err
	}
	ds := datagen.DBpediaDrugBank(ingestDataSeed)
	plan, err := buildPlan(ds.B.Entities, ruleProperties(r), o.seed)
	if err != nil {
		return err
	}
	readBodies, readProbes, err := readerProbes(ds, o.seed)
	if err != nil {
		return err
	}

	n := rounds(o.seconds, ingestRefRound, ingestMinRounds)
	var all []ingestRound
	for rd := 0; rd < n; rd++ {
		copyTo := ""
		if rep.tr != nil && rd == n-1 {
			copyTo = filepath.Join(o.workDir, "killed-leader-copy")
		}
		res, err := ingestOnce(ctx, o, rep, nil, r, rulePath, plan, readBodies, readProbes, fmt.Sprintf("round%d", rd), true, true, copyTo)
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	var setups, writes, walls, stolen, recov, rss, readMs, lagMs []float64
	var batchMs [][]float64
	for _, x := range all {
		setups = append(setups, x.setupS)
		writes = append(writes, x.writeS)
		walls = append(walls, x.wallS)
		stolen = append(stolen, x.stolen)
		recov = append(recov, x.recoveryS)
		rss = append(rss, x.rssMB)
		batchMs = append(batchMs, x.batchMs)
		readMs = append(readMs, x.readMs...)
		lagMs = append(lagMs, x.lagMs...)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rss_peak_mb"] = median(rss)
	rep.e2e["round_s"] = median(writes)
	p50, tailMs, level, _ := perRound(batchMs)
	rep.e2e["op_p50_ms"] = p50
	rep.notef("ingest: %d rounds of %d entities (%d distinct) in %d batches, %.1f%% of CPU time stolen (median round): unstolen %.0f entities/s, batch p50 %.3f ms, p%g %.3f ms; wall %.0f entities/s; reads beside writes p50 %.3f ms (%d, wall from due time); recovery %s s; set-up %s s",
		n, plan.entities, len(plan.final), len(plan.batches), 100*median(stolen), float64(plan.entities)/median(writes),
		p50, 100*level, tailMs, float64(plan.entities)/median(walls), median(readMs), len(readMs), fmtFloats(recov), fmtFloats(setups))

	if rep.tr == nil {
		return nil
	}
	rep.layer["loadgen.read_p50_ms"] = median(readMs)
	if _, lag, ok := tail(lagMs); ok {
		rep.layer["loadgen.lag_ms_tail"] = lag
	}
	rep.layer["genlinkd.restart_recovery_s"] = median(recov)
	return traceIngest(ctx, o, rep, r, rulePath, plan, readBodies, readProbes, p50)
}

// readerProbes returns the reader's probes: DBpedia drugs with a
// DrugBank link, in a seeded order, encoded once.
func readerProbes(ds *entity.Dataset, seed int64) ([][]byte, []*entity.Entity, error) {
	var linked []*entity.Entity
	for _, p := range ds.Refs.Positive {
		linked = append(linked, p.A)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(linked), func(i, j int) { linked[i], linked[j] = linked[j], linked[i] })
	bodies := make([][]byte, len(linked))
	for i, e := range linked {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return bodies, linked, nil
}

// ingestOnce runs one round on a fresh cluster: the writes (through the
// router, or split by partition straight to the leaders when routed is
// false), the reader beside them when withReader, then the quiesced
// checks, the kill and restart of leader 0 and the checks after it.
func ingestOnce(ctx context.Context, o options, rep *report, tr *tracer, r *rule.Rule, rulePath string, plan *ingestPlan,
	readBodies [][]byte, readProbes []*entity.Entity, name string, routed, withReader bool, copyTo string) (ingestRound, error) {
	var res ingestRound
	clk, err := startClock()
	if err != nil {
		return res, err
	}
	c, err := startCluster(ctx, o.genlinkd, rulePath, filepath.Join(o.workDir, name))
	defer c.Close()
	if err != nil {
		return res, err
	}
	wall, stolen, err := clk.stop()
	if err != nil {
		return res, err
	}
	res.setupS = unstolen(wall.Seconds(), stolen)

	if clk, err = startClock(); err != nil {
		return res, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readFailed, readAttempted atomic.Int64
	if withReader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.readMs, res.lagMs = openLoopReader(ctx, stop, tr, c.router.addr, readBodies, &readAttempted, &readFailed)
		}()
	}
	wcl := newClient()
	defer wcl.close()
	var legs []*client
	if !routed {
		for p := 0; p < partitions; p++ {
			legs = append(legs, newClient())
			defer legs[p].close()
		}
	}
	var werr error
	for i, body := range plan.bodies {
		if werr = ctx.Err(); werr != nil {
			break
		}
		bt := time.Now()
		if routed {
			sp := tr.begin("linkrouter.POST /entities", int64(i), -1)
			werr = wcl.postEntitiesJSON(ctx, c.router.addr, body, distinctIDs(plan.batches[i]))
			tr.end(sp)
		} else {
			werr = directWrite(ctx, tr, int64(i), c, legs, plan.batches[i])
		}
		res.batchMs = append(res.batchMs, ms(time.Since(bt)))
		rep.attempted++
		if werr != nil {
			rep.failed++
			break
		}
	}
	wall, res.stolen, err = clk.stop()
	close(stop)
	wg.Wait()
	rep.attempted += readAttempted.Load()
	rep.failed += readFailed.Load()
	if werr != nil {
		return res, fmt.Errorf("write: %w", werr)
	}
	if err != nil {
		return res, err
	}
	res.wallS = wall.Seconds()
	res.writeS = unstolen(res.wallS, res.stolen)
	for i, b := range res.batchMs {
		res.batchMs[i] = unstolen(b, res.stolen)
	}
	if readFailed.Load() > 0 {
		return res, fmt.Errorf("%d reads beside the writes failed", readFailed.Load())
	}
	if res.rssMB, err = c.rssPeakMB(); err != nil {
		return res, err
	}

	// Quiesced: every written id reads back at its last acknowledged
	// version through the router, /stats counts the distinct ids, and
	// answers score like the tree walk over the final versions.
	if err := checkReadBack(ctx, rep, c.router.addr, plan.final); err != nil {
		return res, err
	}
	cl := newClient()
	defer cl.close()
	if got, err := cl.statsEntities(ctx, c.router.addr); err != nil {
		return res, err
	} else if got != len(plan.final) {
		rep.failf("ingest %s: /stats counts %d entities, %d distinct ids were written", name, got, len(plan.final))
	}
	before := make([][]matchLink, checkProbes)
	for i := 0; i < checkProbes; i++ {
		links, err := cl.postMatch(ctx, c.router.addr, readBodies[i], matchK)
		rep.attempted++
		if err != nil {
			rep.failed++
			return res, err
		}
		if err := checkMatch(r, plan.final, rule.MatchThreshold, matchK, readProbes[i], links); err != nil {
			rep.failf("ingest %s: %v", name, err)
		}
		if before[i], err = cl.postMatch(ctx, c.leaders[0].addr, readBodies[i], matchK); err != nil {
			return res, err
		}
	}

	// Crash and recovery of leader 0: it must come back with every
	// acknowledged write of its partition and answer as before.
	d, err := c.restartLeader(ctx, 0, copyTo)
	if err != nil {
		return res, err
	}
	res.recoveryS = d.Seconds()
	part0 := make(map[string]*entity.Entity)
	for id, e := range plan.final {
		if linkindex.PartitionOf(id, partitions) == 0 {
			part0[id] = e
		}
	}
	if err := checkReadBack(ctx, rep, c.leaders[0].addr, part0); err != nil {
		return res, err
	}
	if got, err := cl.statsEntities(ctx, c.leaders[0].addr); err != nil {
		return res, err
	} else if got != len(part0) {
		rep.failf("ingest %s: restarted leader counts %d entities, want %d", name, got, len(part0))
	}
	for i := 0; i < checkProbes; i++ {
		after, err := cl.postMatch(ctx, c.leaders[0].addr, readBodies[i], matchK)
		rep.attempted++
		if err != nil {
			rep.failed++
			return res, err
		}
		if !sameLinks(before[i], after) {
			rep.failf("ingest %s: probe %s answers differently after the restart", name, readProbes[i].ID)
			break
		}
	}
	return res, nil
}

// directWrite sends a batch's partition slices straight to the leaders
// in parallel, as the router would.
func directWrite(ctx context.Context, tr *tracer, op int64, c *cluster, legs []*client, batch []*entity.Entity) error {
	parts := linkindex.SplitBatch(linkindex.Batch{Upserts: batch}, partitions)
	errs := make([]error, partitions)
	var wg sync.WaitGroup
	for p, pb := range parts {
		wg.Add(1)
		go func(p int, ups []*entity.Entity) {
			defer wg.Done()
			sp := tr.begin(fmt.Sprintf("genlinkd[%d].POST /entities", p), op, -1)
			errs[p] = legs[p].postEntities(ctx, c.leaders[p].addr, ups)
			tr.end(sp)
		}(p, pb.Upserts)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openLoopReader sends POST /match at readerRate until stop closes. Each
// request is timed from its due time, so a stalled server shows in the
// requests queued behind the stall; lag is how late each was sent.
func openLoopReader(ctx context.Context, stop <-chan struct{}, tr *tracer, addr string, bodies [][]byte, attempted, failed *atomic.Int64) (latMs, lagMs []float64) {
	cl := newClient()
	defer cl.close()
	send := func(i int) error {
		sp := tr.begin("linkrouter.POST /match (reader)", int64(i), -1)
		_, err := cl.postMatch(ctx, addr, bodies[i%len(bodies)], matchK)
		tr.end(sp)
		return err
	}
	return openLoop(ctx, stop, time.Second/readerRate, send, attempted, failed)
}

// openLoop calls send(i) for i = 0, 1, ... at start + i·period until stop
// closes, returning each call's latency measured from its due time and
// how late it started.
func openLoop(ctx context.Context, stop <-chan struct{}, period time.Duration, send func(i int) error, attempted, failed *atomic.Int64) (latMs, lagMs []float64) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		sent := time.Now()
		err := send(i)
		attempted.Add(1)
		if err != nil {
			failed.Add(1)
			continue
		}
		latMs = append(latMs, ms(time.Since(due)))
		lagMs = append(lagMs, ms(sent.Sub(due)))
	}
}

// checkReadBack GETs every id from addr with two clients and compares it
// with the last acknowledged version.
func checkReadBack(ctx context.Context, rep *report, addr string, want map[string]*entity.Entity) error {
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   []string
		netErr error
	)
	for w := 0; w < matchClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ids) {
					return
				}
				got, err := cl.getEntity(ctx, addr, ids[i])
				mu.Lock()
				switch {
				case err != nil:
					if netErr == nil {
						netErr = err
					}
				default:
					if cerr := checkStored(ids[i], want[ids[i]], got); cerr != nil {
						errs = append(errs, cerr.Error())
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	rep.attempted += int64(len(ids))
	if netErr != nil {
		rep.failed++
		return netErr
	}
	if len(errs) > 0 {
		rep.failf("read-back from %s: %d of %d ids wrong, first: %s", addr, len(errs), len(ids), errs[0])
	}
	return nil
}

// traceIngest takes the ingest workload's per-layer numbers: a traced
// round against the untraced ones, reader-less routed and direct rounds
// for the router's and genlinkd's write overhead, in-process Apply on a
// plain and a durable twin of leader 0's index, a snapshot, recovery of
// a copy of a killed leader's directory, queries under writes, and the
// host's fsync time.
func traceIngest(ctx context.Context, o options, rep *report, r *rule.Rule, rulePath string, plan *ingestPlan,
	readBodies [][]byte, readProbes []*entity.Entity, untracedBatchP50 float64) error {
	tr := rep.tr
	traced, err := ingestOnce(ctx, o, rep, tr, r, rulePath, plan, readBodies, readProbes, "traced", true, true, "")
	if err != nil {
		return err
	}
	rep.layer["tracing.overhead_ratio"] = median(traced.batchMs) / untracedBatchP50

	// The write overhead rounds run without the reader, so the routed and
	// the direct writes see the same load.
	routed, err := ingestOnce(ctx, o, rep, nil, r, rulePath, plan, readBodies, readProbes, "routed-quiet", true, false, "")
	if err != nil {
		return err
	}
	direct, err := ingestOnce(ctx, o, rep, tr, r, rulePath, plan, readBodies, readProbes, "direct-quiet", false, false, "")
	if err != nil {
		return err
	}
	rep.layer["linkrouter.write_overhead_ms_p50"] = median(routed.batchMs) - median(direct.batchMs)

	// In-process twins of leader 0's index: its partition of every batch.
	opts := matching.Options{Blocker: matching.BlockerByName("multipass")}
	var sub []linkindex.Batch
	for _, b := range plan.batches {
		if pb, ok := linkindex.SplitBatch(linkindex.Batch{Upserts: b}, partitions)[0]; ok {
			sub = append(sub, pb)
		}
	}
	plain := linkindex.NewSharded(r, 0, opts)
	ddir := filepath.Join(o.workDir, "durable-twin")
	dur, err := linkindex.NewDurable(ddir, linkindex.NewSharded(r, 0, opts), linkindex.DurableOptions{Fsync: linkindex.FsyncBatch})
	if err != nil {
		return err
	}
	defer dur.Close()
	upserted := 0
	for i, b := range sub {
		sp := tr.begin("linkindex.ShardedIndex.Apply", int64(i), -1)
		plain.Apply(b)
		tr.end(sp)
		sp = tr.begin("linkindex.DurableIndex.Apply", int64(i), -1)
		res, err := dur.Apply(b)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("durable twin apply: %w", err)
		}
		upserted += res.Upserted
	}
	applyP50 := median(tr.durationsMs("linkindex.ShardedIndex.Apply"))
	durP50 := median(tr.durationsMs("linkindex.DurableIndex.Apply"))
	rep.layer["linkindex.apply_ms_p50"] = applyP50
	rep.layer["linkindex.durable_apply_ms_p50"] = durP50
	rep.layer["linkindex.wal_ms_p50"] = durP50 - applyP50
	rep.layer["genlinkd.http_write_overhead_ms_p50"] = median(tr.durationsMs("genlinkd[0].POST /entities")) - durP50
	walBytes, err := sizeOf(ddir, "wal-", ".seg")
	if err != nil {
		return err
	}
	rep.layer["linkindex.wal_bytes_per_entity"] = float64(walBytes) / float64(upserted)
	sp := tr.begin("linkindex.DurableIndex.Snapshot", 0, -1)
	t0 := time.Now()
	if err := dur.Snapshot(); err != nil {
		return err
	}
	rep.layer["linkindex.snapshot_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	snapBytes, err := newestSnapshotSize(ddir)
	if err != nil {
		return err
	}
	rep.layer["linkindex.snapshot_bytes"] = float64(snapBytes)

	// Recovery of the copy taken when the last untraced round killed
	// leader 0.
	sp = tr.begin("linkindex.Recover", 0, -1)
	t0 = time.Now()
	rec, st, err := linkindex.Recover(filepath.Join(o.workDir, "killed-leader-copy"), linkindex.DurableOptions{})
	rep.layer["linkindex.recover_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("recover the killed leader's copy: %w", err)
	}
	rep.layer["linkindex.records_replayed"] = float64(st.RecordsReplayed)
	rec.Close()

	// Queries on a plain twin while the partition's batches apply to it.
	twin := linkindex.NewSharded(r, 0, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range sub {
			twin.Apply(b)
		}
	}()
query:
	for i := 0; ; i++ {
		select {
		case <-done:
			break query
		default:
		}
		sp := tr.begin("linkindex.Query (under Apply)", int64(i), -1)
		twin.Query(readProbes[i%len(readProbes)], matchK)
		tr.end(sp)
	}
	rep.layer["linkindex.query_under_write_ms_p50"] = median(tr.durationsMs("linkindex.Query (under Apply)"))

	fs, err := fsyncMs(filepath.Join(o.workDir, "fsync-probe"), 100)
	if err != nil {
		return err
	}
	rep.layer["disk.fsync_ms_p50"] = median(fs)
	return nil
}

// sizeOf sums the sizes of the files in dir named prefix*suffix.
func sizeOf(dir, prefix, suffix string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), prefix) || !strings.HasSuffix(de.Name(), suffix) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// newestSnapshotSize returns the size of the newest snapshot in dir
// (snapshot names sort by sequence number).
func newestSnapshotSize(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(matches) == 0 {
		return 0, fmt.Errorf("no snapshot in %s (%v)", dir, err)
	}
	fi, err := os.Stat(matches[len(matches)-1])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// fsyncMs times n appends of 4 KiB, each followed by fsync, in a file at
// path: the host's reference for what one durable write costs.
func fsyncMs(path string, n int) ([]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, f.Close()
}
