package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
	"genlink/internal/genlink"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// The learn workload: GenLink learns a rule on DBpediaDrugBank with the
// paper's Table 4 parameters (population 500), a fixed number of
// generations and the training-F1 early stop disabled, so every round
// does the same amount of work. The dataset is fixed; --seed picks the
// train/validation split. Each round runs in its own process.
const (
	learnDataSeed    = 1
	learnGenerations = 50
	learnRefRound    = 3 * time.Second // one learner run on the reference host
	learnMinRounds   = 3
	learnValF1Floor  = 0.97 // validation F-measure every learned rule must reach (generation 0: ~0.87)
	replayBatches    = 10   // population-shaped batches in the evalengine replay
)

// learnConfig is Table 4 with a fixed generation count.
func learnConfig(seed int64) genlink.Config {
	cfg := genlink.DefaultConfig()
	cfg.MaxIterations = learnGenerations
	cfg.TargetFMeasure = 0 // no early stop: fixed work per run
	cfg.Seed = seed
	return cfg
}

// learnerSeed is round r's learner seed. It does not depend on --seed:
// every run learns with the same seeds, on its own split.
func learnerSeed(r int) int64 { return int64(r + 1) }

// learnRound is what one learner round reports from its own process.
type learnRound struct {
	StartNs   int64    `json:"start_ns"`   // wall clock when the learner started
	SetupS    float64  `json:"setup_s"`    // dataset generation and split, unstolen
	WallS     float64  `json:"wall_s"`     // the learner run's wall time
	Stolen    float64  `json:"stolen"`     // share of CPU time stolen during it
	LearnS    float64  `json:"learn_s"`    // unstolen
	ElapsedNs []int64  `json:"elapsed_ns"` // Result.History elapsed times
	RSSMB     float64  `json:"rss_mb"`     // the round's process VmHWM
	ValF1     float64  `json:"val_f1"`
	Operators int      `json:"operators"`
	Signature string   `json:"signature"`
	Checks    []string `json:"checks"`
}

// learnSplit generates the dataset and splits its reference links by
// the workload seed.
func learnSplit(seed int64) (train, val *entity.ReferenceLinks) {
	ds := datagen.DBpediaDrugBank(learnDataSeed)
	folds := evalx.SplitFolds(ds.Refs, 2, rand.New(rand.NewSource(seed)))
	return folds[0], folds[1]
}

// runLearnRound is the body of one round's process (--learn-round):
// set-up, one learner run and its checks, reported as JSON on stdout.
func runLearnRound(seed int64, r int) error {
	var lr learnRound
	clk, err := startClock()
	if err != nil {
		return err
	}
	train, val := learnSplit(seed)
	wall, stolen, err := clk.stop()
	if err != nil {
		return err
	}
	lr.SetupS = unstolen(wall.Seconds(), stolen)
	if clk, err = startClock(); err != nil {
		return err
	}
	res, err := genlink.NewLearner(learnConfig(learnerSeed(r))).LearnWithValidation(train, val)
	if err != nil {
		return err
	}
	if wall, lr.Stolen, err = clk.stop(); err != nil {
		return err
	}
	lr.StartNs, lr.WallS = clk.t0.UnixNano(), wall.Seconds()
	lr.LearnS = unstolen(lr.WallS, lr.Stolen)
	for _, h := range res.History {
		lr.ElapsedNs = append(lr.ElapsedNs, int64(h.Elapsed))
	}
	if lr.RSSMB, err = vmHWM(os.Getpid()); err != nil {
		return err
	}
	lr.ValF1, lr.Operators, lr.Signature = res.BestValF1, res.Best.OperatorCount(), res.Best.Signature()
	lr.Checks = checkLearn(r, res, val)
	return json.NewEncoder(os.Stdout).Encode(lr)
}

// runLearn runs each round in its own process, so that every round's
// peak memory is measured on its own and no round inherits another's
// heap.
func runLearn(ctx context.Context, o options, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var (
		all                                           []learnRound
		setups, runS, wallS, stolenS, rss, genMs, g0S []float64
	)
	n := rounds(o.seconds, learnRefRound, learnMinRounds)
	for r := 0; r < n; r++ {
		cmd := exec.CommandContext(ctx, exe, "--learn-round", strconv.Itoa(r), "--seed", strconv.FormatInt(o.seed, 10))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		rep.attempted++
		if err != nil {
			rep.failed++
			return fmt.Errorf("learner round %d: %w", r, err)
		}
		var lr learnRound
		if err := json.Unmarshal(out, &lr); err != nil {
			return fmt.Errorf("learner round %d: %w", r, err)
		}
		all = append(all, lr)
		rep.checks = append(rep.checks, lr.Checks...)
		setups = append(setups, lr.SetupS)
		runS = append(runS, lr.LearnS)
		wallS = append(wallS, lr.WallS)
		stolenS = append(stolenS, lr.Stolen)
		rss = append(rss, lr.RSSMB)
		start := time.Unix(0, lr.StartNs)
		root := rep.tr.record("genlink.LearnWithValidation", int64(r), -1, start, start.Add(time.Duration(lr.WallS*1e9)))
		var prev time.Duration
		for i, e := range lr.ElapsedNs {
			el := time.Duration(e)
			name := "genlink.generation"
			if i == 0 {
				name = "genlink.generation0"
				g0S = append(g0S, el.Seconds())
			} else {
				genMs = append(genMs, unstolen(ms(el-prev), lr.Stolen))
			}
			rep.tr.record(name, int64(r), root, start.Add(prev), start.Add(el))
			prev = el
		}
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rss_peak_mb"] = median(rss)
	rep.e2e["round_s"] = median(runS)
	p50, tailMs, level, _ := perRound(chunks(genMs, learnGenerations))
	rep.e2e["op_p50_ms"] = p50
	rep.notef("learn: %d learner runs (pop %d × %d generations), %.1f%% of CPU time stolen (median run): unstolen learn_s median %.3f [%s], wall %.3f [%s]; generation p50 %.2f ms, p%g %.2f ms (unstolen) over %d generations; RSS %s MB; round 0: %d operators, val F1 %.4f",
		n, genlink.DefaultConfig().PopulationSize, learnGenerations, 100*median(stolenS), median(runS), fmtFloats(runS), median(wallS), fmtFloats(wallS),
		p50, 100*level, tailMs, len(genMs), fmtFloats(rss), all[0].Operators, all[0].ValF1)

	if rep.tr != nil {
		return traceLearn(ctx, o.seed, rep, all[0], g0S)
	}
	return nil
}

// checkLearn verifies a learner run apart from the learner: the best
// rule's validation F-measure recomputed by the interpreted tree walk
// equals the reported one and reaches the floor, every generation ran,
// and with elitism the best fitness never decreases.
func checkLearn(r int, res *genlink.Result, val *entity.ReferenceLinks) []string {
	var out []string
	failf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	f := evalx.EvaluateTreeWalk(res.Best, val).FMeasure()
	if math.Abs(f-res.BestValF1) > 1e-12 {
		failf("learn run %d: tree-walk validation F1 %.6f differs from the reported %.6f", r, f, res.BestValF1)
	}
	if f < learnValF1Floor {
		failf("learn run %d: validation F1 %.6f below the floor %.2f", r, f, learnValF1Floor)
	}
	if len(res.History) != learnGenerations+1 {
		failf("learn run %d: %d generations recorded, want %d", r, len(res.History), learnGenerations+1)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].BestFitness < res.History[i-1].BestFitness {
			failf("learn run %d: best fitness fell from %v to %v at generation %d",
				r, res.History[i-1].BestFitness, res.History[i].BestFitness, i)
			break
		}
	}
	return out
}

// traceLearn takes the learn workload's per-layer numbers: the seeding
// step, a learner run with counting wrappers around every distance
// measure and transformation, and a replay of population-shaped batches
// through the evaluation engine.
func traceLearn(ctx context.Context, splitSeed int64, rep *report, round0 learnRound, gen0S []float64) error {
	tr := rep.tr
	const op = 1 << 20 // operation ids of the traced replays, apart from the rounds

	train, _ := learnSplit(splitSeed)
	seed := learnerSeed(0)
	cfg := learnConfig(seed)
	sp := tr.begin("genlink.CompatibleProperties", op, -1)
	t0 := time.Now()
	pairs := genlink.CompatibleProperties(train.Positive, cfg.Measures, cfg.CompatThreshold, cfg.MaxCompatLinks, rand.New(rand.NewSource(seed)))
	rep.layer["genlink.seeding_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	rep.layer["genlink.generation0_s"] = median(gen0S)
	rep.layer["genlink.generation_ms_p50"] = median(tr.durationsMs("genlink.generation"))

	var lc layerCounters
	cfg.Measures = lc.measures(cfg.Measures)
	cfg.Transforms = lc.transforms(cfg.Transforms)
	sp = tr.begin("genlink.LearnWithValidation.counted", op+1, -1)
	t0 = time.Now()
	res, err := genlink.NewLearner(cfg).Learn(train)
	d := time.Since(t0)
	tr.end(sp)
	rep.attempted++
	if err != nil {
		rep.failed++
		return fmt.Errorf("counted learner run: %w", err)
	}
	if res.Best.Signature() != round0.Signature {
		rep.failf("learn: the counted run learned a different rule than the plain run with the same seed")
	}
	rep.layer["tracing.overhead_ratio"] = d.Seconds() / round0.WallS
	rep.layer["similarity.distance_calls"] = float64(lc.distCalls.Load())
	rep.layer["similarity.distance_s"] = float64(lc.distNs.Load()) / 1e9
	rep.layer["similarity.levenshtein_s"] = float64(lc.levNs.Load()) / 1e9
	rep.layer["transform.calls"] = float64(lc.trCalls.Load())
	rep.layer["transform.s"] = float64(lc.trNs.Load()) / 1e9
	tr.add("similarity.distance_calls", float64(lc.distCalls.Load()))
	tr.add("transform.calls", float64(lc.trCalls.Load()))

	// Population-shaped replay: a random initial population built from
	// the seeding's property pairs, then batches bred from the previous
	// one with the learner's own crossover operators (a quarter of them
	// crossed with a fresh random rule, as the learner's mutation does),
	// all scored by one engine as a learning run would.
	engine := evalengine.New(train, evalengine.Options{})
	ops := []genlink.CrossoverOp{
		genlink.FunctionCrossover(genlink.Full), genlink.OperatorsCrossover(genlink.Full),
		genlink.AggregationCrossover(), genlink.TransformationCrossover(),
		genlink.ThresholdCrossover(), genlink.WeightCrossover(),
	}
	rng := rand.New(rand.NewSource(seed))
	plain := learnConfig(seed)
	var pool []*rule.Rule
	for g := 0; g < replayBatches; g++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := make([]*rule.Rule, 0, plain.PopulationSize)
		for len(batch) < plain.PopulationSize {
			if g == 0 {
				batch = append(batch, randomRule(rng, pairs, plain))
				continue
			}
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if rng.Float64() < plain.MutationProbability {
				b = randomRule(rng, pairs, plain)
			}
			batch = append(batch, ops[rng.Intn(len(ops))].Cross(rng, a, b))
		}
		sp := tr.begin("evalengine.EvaluateBatch", op+2, -1)
		engine.EvaluateBatch(batch)
		tr.end(sp)
		pool = batch
	}
	rep.layer["evalengine.fitness_batch_ms"] = median(tr.durationsMs("evalengine.EvaluateBatch"))
	st := engine.Stats()
	rep.layer["evalengine.dist_cache_hit_ratio"] = float64(st.DistHits) / float64(st.DistHits+st.DistComputed)
	rep.notef("learn trace: counted run %.3f s vs plain %.3f s; %d distance calls, %d transformations; replay dist cache %d hits / %d computed",
		d.Seconds(), round0.WallS, lc.distCalls.Load(), lc.trCalls.Load(), st.DistHits, st.DistComputed)
	return nil
}

// layerCounters are filled by the counting wrappers: calls into the
// similarity and transform layers and the time spent in them (summed
// over the goroutines that call them).
type layerCounters struct {
	distCalls, distNs, levNs atomic.Int64
	trCalls, trNs            atomic.Int64
}

type countingMeasure struct {
	similarity.Measure
	lc  *layerCounters
	lev bool
}

func (m countingMeasure) Distance(a, b []string) float64 {
	t0 := time.Now()
	d := m.Measure.Distance(a, b)
	el := int64(time.Since(t0))
	m.lc.distCalls.Add(1)
	m.lc.distNs.Add(el)
	if m.lev {
		m.lc.levNs.Add(el)
	}
	return d
}

type countingTransform struct {
	transform.Transformation
	lc *layerCounters
}

func (t countingTransform) Apply(inputs ...[]string) []string {
	t0 := time.Now()
	out := t.Transformation.Apply(inputs...)
	t.lc.trNs.Add(int64(time.Since(t0)))
	t.lc.trCalls.Add(1)
	return out
}

// measures wraps each measure; names are kept, so rules, signatures and
// the engine's caches are the same as with the plain measures.
func (lc *layerCounters) measures(ms []similarity.Measure) []similarity.Measure {
	out := make([]similarity.Measure, len(ms))
	for i, m := range ms {
		out[i] = countingMeasure{Measure: m, lc: lc, lev: m.Name() == "levenshtein"}
	}
	return out
}

func (lc *layerCounters) transforms(ts []transform.Transformation) []transform.Transformation {
	out := make([]transform.Transformation, len(ts))
	for i, t := range ts {
		out[i] = countingTransform{Transformation: t, lc: lc}
	}
	return out
}

// countedRule returns a copy of r whose comparisons measure through
// counting wrappers.
func (lc *layerCounters) countedRule(r *rule.Rule) *rule.Rule {
	c := r.Clone()
	for _, cmp := range c.Comparisons() {
		cmp.Measure = countingMeasure{Measure: cmp.Measure, lc: lc, lev: cmp.Measure.Name() == "levenshtein"}
	}
	return c
}

// randomRule builds a random rule the way the learner's generator does:
// an aggregation of one or two comparisons over compatible property
// pairs, each side lowercased or not, with a random threshold.
func randomRule(rng *rand.Rand, pairs []genlink.PropertyPair, cfg genlink.Config) *rule.Rule {
	aggs := rule.CoreAggregators()
	ops := make([]rule.SimilarityOp, 1+rng.Intn(2))
	for i := range ops {
		pair := pairs[rng.Intn(len(pairs))]
		m := similarity.ByName(pair.Measure)
		if m == nil || rng.Float64() < 0.5 {
			m = cfg.Measures[rng.Intn(len(cfg.Measures))]
		}
		side := func(p string) rule.ValueOp {
			if rng.Float64() < 0.5 {
				return rule.NewTransform(cfg.Transforms[rng.Intn(len(cfg.Transforms))], rule.NewProperty(p))
			}
			return rule.NewProperty(p)
		}
		maxT := 1.0
		if m.Name() == "levenshtein" {
			maxT = 20
		}
		c := rule.NewComparison(side(pair.A), side(pair.B), m, rng.Float64()*maxT)
		c.SetWeight(1 + rng.Intn(5))
		ops[i] = c
	}
	return rule.New(rule.NewAggregation(aggs[rng.Intn(len(aggs))], ops...))
}

// fmtFloats renders a sample of seconds compactly for the notes.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
