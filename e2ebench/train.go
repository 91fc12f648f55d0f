package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/mat"
)

// trainTask is one synthetic Table I shape the train workload learns.
type trainTask struct {
	name        string
	train, test disthd.DataSplit
	model       *disthd.Model
	clf         *core.Classifier // the traced pipeline's latest classifier
}

// trainShapes are the two tasks of the train workload: ISOLET-shaped
// (617 features, 26 classes), where Algorithm 1's adaptive epochs
// dominate, and PAMAP2-shaped (54 features, 5 classes, 6000 training
// rows), where Algorithm 2's scoring and regeneration weigh most.
func trainShapes(tiny bool) []struct {
	name  string
	scale float64
} {
	if tiny {
		return []struct {
			name  string
			scale float64
		}{{"ISOLET", 0.03}, {"PAMAP2", 0.02}}
	}
	return []struct {
		name  string
		scale float64
	}{{"ISOLET", 1}, {"PAMAP2", 1}}
}

// trainConfig is the paper's compressed operating point: D = 512,
// 20 iterations, R = 10%.
func trainConfig(tiny bool, seed uint64) disthd.Config {
	cfg := disthd.DefaultConfig()
	cfg.Dim, cfg.Iterations, cfg.RegenRate, cfg.Seed = 512, 20, 0.10, seed
	if tiny {
		cfg.Dim, cfg.Iterations = 64, 4
	}
	return cfg
}

// trainOnlineConfig configures the train workload's online learner.
func trainOnlineConfig(tiny bool, seed uint64) disthd.OnlineConfig {
	c := disthd.OnlineConfig{Window: 512, RecentWindow: 64, DriftThreshold: fixedBudget, Seed: seed}
	if tiny {
		c.Window, c.RecentWindow = 48, 16
	}
	return c
}

// pipelineTrain trains exactly as TrainWithConfig does, but drives the
// core.Pipeline stages itself so each stage is a span.
func pipelineTrain(tr *tracer, s disthd.DataSplit, cfg disthd.Config) (*core.Classifier, *core.TrainStats, error) {
	root := tr.begin("train.task", 0)
	defer root.end()
	cc := core.DefaultConfig()
	cc.Dim, cc.Iterations, cc.LearningRate = cfg.Dim, cfg.Iterations, cfg.LearningRate
	cc.Alpha, cc.Beta, cc.Theta = cfg.Alpha, cfg.Beta, cfg.Theta
	cc.RegenRate, cc.Seed = cfg.RegenRate, cfg.Seed
	// TrainWithConfig derives the encoder seed this way; the equivalence
	// check below fails if the two ever diverge.
	enc := encoding.NewRBF(len(s.X[0]), cfg.Dim, cfg.Seed^0xd15c0)
	p, err := core.NewPipeline(enc, mat.FromRows(s.X), s.Y, s.Classes, cc)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("core.encode", root.id)
	p.Encode()
	sp.end()
	for !p.Done() {
		sp = tr.begin("core.adapt", root.id)
		p.Adapt()
		sp.end()
		if p.Done() {
			break
		}
		if !p.WillRegenerate() {
			p.SkipScore()
			continue
		}
		sp = tr.begin("core.score", root.id)
		ds := p.Score()
		sp.end()
		sp = tr.begin("core.regen", root.id)
		p.Regenerate(ds)
		sp.end()
	}
	clf, st := p.Finish()
	return clf, st, nil
}

// runTrain is the train workload: cold DistHD training of both shapes,
// then offline batch inference of their test sets, single-row
// predictions at a fixed rate, and the online learner's Observe and
// gated retrain — the method without any serving layer.
func runTrain(r *run) error {
	tiny, seed, S := r.o.tiny, r.o.seed, r.o.seconds
	cfg := trainConfig(tiny, seed)

	setups := r.newSetups(false)
	var tasks []*trainTask
	genData := func() (ts []*trainTask, err error) {
		for _, sh := range trainShapes(tiny) {
			train, test, err := disthd.SyntheticBenchmark(sh.name, sh.scale, seed)
			if err != nil {
				return nil, err
			}
			ts = append(ts, &trainTask{name: sh.name, train: train, test: test})
		}
		return ts, nil
	}
	if err := setups.time(func() (float64, error) {
		var err error
		tasks, err = genData()
		return 0, err
	}); err != nil {
		return err
	}
	ocfg := trainOnlineConfig(tiny, seed)
	var learner *disthd.OnlineLearner
	var fx [][]float64
	var fy []int
	gate := disthd.NewGate(disthd.GateConfig{})
	observePh, retrainPh := r.phase("learn"), r.phase("retrain")
	var obs []float64
	retrainS := r.newMeter("retrain_s", false)

	// Rounds of: a cold training of both tasks, offline batch inference
	// of both test sets, a window of single-row predictions at a fixed
	// rate alternating the tasks, one more data set-up, and a full window
	// of drifted labeled feedback into the online learner over the
	// ISOLET-shaped model followed by a retrain on it. The metrics are
	// medians over the rounds; p50 is over every prediction.
	trainPh, batchPh, predictPh := r.phase("train"), r.phase("batch_infer"), r.phase("predict")
	const rate = 1000
	rounds := work(S, 0.9, 1/3.5, 1)
	passes, predictN := work(S, 0.4, 1, 2), fixedRateN(tiny)
	if tiny {
		rounds, predictN = 2, 100
	}
	trainS, rowsPerS, p50 := r.newMeter("train_s", false), r.newMeter("rows_per_s", true), r.newMeter("p50_ms", false)
	var lat, late []float64
	var stats []*core.TrainStats
	var refs []refAnswers
	var batchAgree, predictAgree agreement
	var accs []float64
	for k := 0; k < rounds; k++ {
		timedGC()
		iv := startInterval()
		for _, t := range tasks {
			if r.tr != nil {
				clf, st, err := pipelineTrain(r.tr, t.train, cfg)
				trainPh.done(err)
				if err != nil {
					return err
				}
				stats = append(stats, st)
				t.clf = clf
				continue
			}
			m, err := disthd.TrainWithConfig(t.train.X, t.train.Y, t.train.Classes, cfg)
			trainPh.done(err)
			if err != nil {
				return err
			}
			t.model = m
		}
		trainS.add(time.Since(iv.t0).Seconds(), iv.busyKept())
		if k == 0 {
			var err error
			if refs, err = r.checkTrained(tasks, cfg, stats); err != nil {
				return err
			}
			if learner, err = disthd.NewOnlineLearner(tasks[0].model, ocfg); err != nil {
				return err
			}
			if fx, fy, err = driftStream(tasks[0].test, rounds*ocfg.Window, seed); err != nil {
				return err
			}
		}

		timedGC()
		iv = startInterval()
		rows := 0
		for p := 0; p < passes; p++ {
			for i, t := range tasks {
				got, err := t.model.PredictBatch(t.test.X)
				batchPh.done(err)
				if err != nil {
					return err
				}
				rows += len(got)
				if k > 0 || p > 0 {
					continue
				}
				var g agreement
				for j, c := range got {
					g.add(refs[i], j, c, t.test.Y[j])
				}
				batchAgree.merge(&g)
				accs = append(accs, float64(g.correct)/float64(g.labeled))
			}
		}
		rowsPerS.add(float64(rows)/time.Since(iv.t0).Seconds(), iv.busyKept())

		answers := make([]int, predictN)
		pick := func(i int) (t int, row int) { return i % 2, (k*predictN + i/2) % tasks[i%2].test.Len() }
		var wl, wlate []float64
		r.timed(predictN, func() {
			iv := startInterval()
			wl, wlate = openLoop(predictN, clients, rate, func(i int) {
				t, row := pick(i)
				c, err := tasks[t].model.Predict(tasks[t].test.X[row])
				predictPh.done(err)
				answers[i] = c
			})
			p50.add(median(wl), iv.capacityKept())
		})
		for i, c := range answers {
			t, row := pick(i)
			predictAgree.add(refs[t], row, c, -1)
		}
		lat, late = append(lat, wl...), append(late, wlate...)

		if err := setups.time(func() (float64, error) {
			_, err := genData()
			return 0, err
		}); err != nil {
			return err
		}
		timedGC()
		for j := k * ocfg.Window; j < (k+1)*ocfg.Window; j++ {
			t0 := time.Now()
			_, err := learner.Observe(fx[j], fy[j])
			obs = append(obs, ms(time.Since(t0)))
			observePh.done(err)
		}
		// Forced, like the serving workloads' retrains: every retrain runs
		// the gate and the full-window refit, whatever the verdict.
		timedGC()
		iv = startInterval()
		_, _, err := learner.RetrainGated(gate, true)
		retrainPh.done(err)
		if err != nil {
			return err
		}
		retrainS.add(time.Since(iv.t0).Seconds(), iv.busyKept())
	}
	setups.report(r)
	r.e2e["learn_p50_ms"], r.e2e["retrain_s"] = median(obs), retrainS.value()
	r.e2e["train_s"], r.e2e["rows_per_s"] = trainS.value(), rowsPerS.value()
	r.e2e["p50_ms"] = p50.value()
	r.e2e["accuracy"] = (accs[0] + accs[1]) / 2
	r.checkAgreement("reference/batch", &batchAgree)
	r.checkAgreement("reference/predict", &predictAgree)
	r.check("learner-observations", learner.Observations() == uint64(len(obs)),
		"the learner counted %d observations of the %d fed", learner.Observations(), len(obs))
	r.logf("rounds: %d of a cold training per task, %d batch-inference passes, %d predictions at %d/s from %d workers, %d observations and a retrain; p99 %.3f ms (%d samples, wall time; not gated)",
		rounds, passes, predictN, rate, clients, ocfg.Window, p99(lat), len(lat))

	if r.tr == nil {
		return nil
	}
	return r.trainLayers(tasks, cfg, stats, late)
}

// checkTrained checks the first round's models: on a traced run the
// pipeline-trained classifiers must predict exactly what TrainWithConfig's
// models do (which then serve the later phases), and regenerate within
// budget; every model must satisfy D* = D + regenerated, and predict
// identically after a Save→Load round trip. It returns the reference
// answers on each test set and sets model_kb.
func (r *run) checkTrained(tasks []*trainTask, cfg disthd.Config, stats []*core.TrainStats) ([]refAnswers, error) {
	for i, t := range tasks {
		if t.clf == nil {
			continue
		}
		m, err := disthd.TrainWithConfig(t.train.X, t.train.Y, t.train.Classes, cfg)
		if err != nil {
			return nil, err
		}
		t.model = m
		want := t.clf.PredictBatch(mat.FromRows(t.test.X))
		got, err := m.PredictBatch(t.test.X)
		if err != nil {
			return nil, err
		}
		r.check("pipeline-equals-train/"+t.name, slices.Equal(got, want),
			"the traced pipeline and TrainWithConfig predict the %d test rows identically", len(got))
		r.checkRegen(t.name, stats[i], cfg)
	}
	refs := make([]refAnswers, len(tasks))
	var kb float64
	for i, t := range tasks {
		info := t.model.Info
		maxTotal := int(cfg.RegenRate*float64(cfg.Dim)) * max(info.Iterations-1, 0)
		r.check("effective-dim/"+t.name,
			info.EffectiveDim == cfg.Dim+info.RegeneratedDims && info.RegeneratedDims <= maxTotal,
			"EffectiveDim %d = D %d + regenerated %d (at most %d over %d iterations)",
			info.EffectiveDim, cfg.Dim, info.RegeneratedDims, maxTotal, info.Iterations)
		ref, img, err := snapshot(t.model)
		if err != nil {
			return nil, err
		}
		kb += float64(len(img)) / 1024
		refs[i] = referencePool(ref, t.test.X)
		back, err := disthd.Load(bytes.NewReader(img))
		if err != nil {
			return nil, err
		}
		a, errA := t.model.PredictBatch(t.test.X)
		b, errB := back.PredictBatch(t.test.X)
		r.check("save-load/"+t.name, errA == nil && errB == nil && slices.Equal(a, b),
			"Save→Load round trip of a %d-byte model predicts the %d test rows identically", len(img), len(a))
	}
	r.e2e["model_kb"] = kb
	return refs, nil
}

// checkRegen checks the traced run's per-iteration regeneration counts
// against the budget R·D and the run totals against D* = D + regenerated.
func (r *run) checkRegen(name string, st *core.TrainStats, cfg disthd.Config) {
	budget := int(cfg.RegenRate * float64(cfg.Dim))
	total, worst := 0, 0
	for _, it := range st.Iters {
		total += it.Regenerated
		worst = max(worst, it.Regenerated)
	}
	r.check("regen-budget/"+name,
		worst <= budget && total == st.TotalRegenerated && st.EffectiveDim == cfg.Dim+total,
		"at most %d of R·D=%d dims regenerated per iteration over %d iterations, %d in all, D*=%d",
		worst, budget, len(st.Iters), total, st.EffectiveDim)
}

// trainLayers derives the train workload's per-layer metrics from the
// pipeline spans and probes.
func (r *run) trainLayers(tasks []*trainTask, cfg disthd.Config, stats []*core.TrainStats, late []float64) error {
	spans, err := r.finishTrace()
	if err != nil {
		return err
	}
	rounds := float64(len(stats) / len(tasks))
	for _, stage := range []string{"encode", "adapt", "score", "regen"} {
		r.layer["core."+stage+"_ms"] = sumMs(spans, "core."+stage) / rounds
	}
	var flops, samples float64
	var regen, iters int
	for i, st := range stats {
		t := tasks[i%len(tasks)]
		flops += 2 * float64(t.train.Len()*len(t.train.X[0])*cfg.Dim)
		samples += float64(t.train.Len() * len(st.Iters))
		regen += st.TotalRegenerated
		iters += len(st.Iters)
	}
	r.layer["core.regenerated_dims"] = float64(regen) / rounds
	r.layer["core.iterations"] = float64(iters) / rounds
	r.layer["encoding.encode_gflops"] = flops / (sumMs(spans, "core.encode") * 1e6)
	r.layer["model.adapt_us_per_sample"] = sumMs(spans, "core.adapt") * 1e3 / samples
	r.layer["loadgen.late_p99_ms"] = p99(late)

	// The four stages must account for the traced training time. At the
	// self-check's tiny shapes the fixed cost outside them (drawing the
	// encoder) is a large share, so only full-size runs hold them to it.
	stages := 0.0
	for _, stage := range []string{"encode", "adapt", "score", "regen"} {
		stages += r.layer["core."+stage+"_ms"]
	}
	total := sumMs(spans, "train.task") / rounds
	if !r.o.tiny {
		r.check("stage-sum", math.Abs(stages-total) <= 0.05*total,
			"core stages sum to %.1f ms of %.1f ms traced training per round", stages, total)
	}

	// The ISOLET-shaped model dominates the per-row cost.
	if err := r.modelProbes(tasks[0].model, tasks[0].test.X); err != nil {
		return fmt.Errorf("model probes: %w", err)
	}
	ocfg := trainOnlineConfig(r.o.tiny, r.o.seed)
	src := tasks[0].test
	n := min(ocfg.Window, src.Len())
	return r.learnerProbes(tasks[0].model, ocfg, src.X[:n], src.Y[:n])
}
