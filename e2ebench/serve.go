package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/serve"
)

// Serve-workload request mix, one entry per operation, repeated: single
// rows through the coalescing /predict path, binary and JSON
// /predict_batch, and labeled binary /learn.
const (
	opPredict = iota
	opBatchBin
	opBatchJSON
	opLearn
)

var serveMix = []int{opPredict, opBatchBin, opPredict, opLearn, opPredict, opBatchBin, opPredict, opBatchJSON}

const (
	batchBinRows  = 32
	batchJSONRows = 8
	// serveRate is the fixed arrival rate of the latency phase.
	serveRate = 300
	// poisonProbes is how many one-row binary frames with a NaN feature
	// the serve workload sends; each must be refused with a 4xx.
	poisonProbes = 8
)

// serveSetup is one set-up serving stack.
type serveSetup struct {
	train, test disthd.DataSplit
	model       *disthd.Model
	trainS      float64
	srv         *serve.Server
	http        *httpServer
}

func (s *serveSetup) close() {
	_ = s.srv.Close() // drains the batcher; its own listener never started
	s.http.close()
}

// serveModel generates the UCIHAR-shaped data and trains the served
// model at D = 512.
func serveModel(tiny bool, seed uint64) (train, test disthd.DataSplit, m *disthd.Model, trainS float64, err error) {
	scale := 1.0
	if tiny {
		scale = 0.05
	}
	train, test, err = disthd.SyntheticBenchmark("UCIHAR", scale, seed)
	if err != nil {
		return
	}
	t0 := time.Now()
	m, err = disthd.TrainWithConfig(train.X, train.Y, train.Classes, trainConfig(tiny, seed))
	return train, test, m, time.Since(t0).Seconds(), err
}

// fixedBudget is the drift threshold of every learner in the benchmark.
// A learner scales a retrain's iterations by how far the drift severity
// exceeds its threshold, and the severity at a retrain depends on the
// seed and on how far the ordered drift has got; no accuracy drop
// exceeds 1, so every retrain runs the same budget and retrain_s times
// the same work in every round of every run.
const fixedBudget = 1.0

// learnerOptions configures the serve workload's learner: feedback only
// trains on explicit /retrain calls, so no retrain overlaps a timed
// predict phase.
func learnerOptions(tiny bool, seed uint64) serve.LearnerOptions {
	o := serve.LearnerOptions{Window: 512, RecentWindow: 64, DriftThreshold: fixedBudget, Seed: seed}
	if tiny {
		o.Window, o.RecentWindow = 48, 16
	}
	return o
}

// setupServe builds the serving stack once.
func (r *run) setupServe() (*serveSetup, error) {
	train, test, m, trainS, err := serveModel(r.o.tiny, r.o.seed)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(m, serve.Options{})
	if err != nil {
		return nil, err
	}
	l, err := serve.NewLearner(srv.Batcher().Swapper(), learnerOptions(r.o.tiny, r.o.seed))
	if err != nil {
		srv.Close()
		return nil, err
	}
	srv.AttachLearner(l)
	hs, err := startHTTP(srv.Handler(), r.tr, "handler.")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveSetup{train: train, test: test, model: m, trainS: trainS, srv: srv, http: hs}, nil
}

// mixAnswers records what each operation of a mixed phase answered, for
// the reference check after the phase.
type mixAnswers struct {
	single []int
	batch  [][]int
}

func newMixAnswers(n int) *mixAnswers {
	return &mixAnswers{single: make([]int, n), batch: make([][]int, n)}
}

// mixRows returns the pool rows operation i sends: its first row index
// and row count.
func mixRows(i, kind, pool int) (start, n int) {
	switch kind {
	case opBatchBin:
		n = batchBinRows
	case opBatchJSON:
		n = batchJSONRows
	default:
		n = 1
	}
	n = min(n, pool)
	return (i * 37) % (pool - n + 1), n
}

// mixOp sends operation i of the serve mix; route prefixes the paths.
func mixOp(c *client, route string, rows [][]float64, labels []int, ans *mixAnswers, i int) (rowsAnswered int, err error) {
	kind := serveMix[i%len(serveMix)]
	start, n := mixRows(i, kind, len(rows))
	switch kind {
	case opPredict:
		ans.single[i], err = c.predictJSON(route+"/predict", rows[start])
	case opBatchBin:
		ans.batch[i], err = c.predictBatchBin(route+"/predict_batch", rows[start:start+n])
	case opBatchJSON:
		ans.batch[i], err = c.predictBatchJSON(route+"/predict_batch", rows[start:start+n])
	case opLearn:
		return 0, c.learnBin(route+"/learn", rows[start], labels[start])
	}
	if err == nil && (kind == opBatchJSON || kind == opBatchBin) {
		if len(ans.batch[i]) != n {
			return 0, fmt.Errorf("%d classes for %d rows", len(ans.batch[i]), n)
		}
	}
	return n, err
}

// tally checks a mixed phase's answers against the reference.
func (a *mixAnswers) tally(g *agreement, ref refAnswers, labels []int, pool int) {
	for i := range a.single {
		kind := serveMix[i%len(serveMix)]
		start, n := mixRows(i, kind, pool)
		switch kind {
		case opPredict:
			g.add(ref, start, a.single[i], labels[start])
		case opBatchBin, opBatchJSON:
			for j, c := range a.batch[i] {
				if j < n {
					g.add(ref, start+j, c, labels[start+j])
				}
			}
		}
	}
}

// Drifted feedback: a third of the features shift by up to +2.5σ, as a
// sensor losing calibration would. Every workload's labeled feedback is
// drifted, so each retrain adapts to new data and does about the same
// work whatever the seed.
const driftFraction, driftSeverity = 0.33, 2.5

// driftStream returns n labeled rows cycling through s, drifting in order
// from no shift to the full one.
func driftStream(s disthd.DataSplit, n int, seed uint64) (x [][]float64, y []int, err error) {
	rows, labels := make([][]float64, n), make([]int, n)
	for i := range rows {
		rows[i], labels[i] = s.X[i%s.Len()], s.Y[i%s.Len()]
	}
	stream, err := dataset.NewDriftStream(&dataset.Dataset{X: mat.FromRows(rows), Y: labels, Classes: s.Classes},
		dataset.DriftShift, driftFraction, driftSeverity, seed^0xd21f7)
	if err != nil {
		return nil, nil, err
	}
	for xi, yi, ok := stream.Next(); ok; xi, yi, ok = stream.Next() {
		x, y = append(x, xi), append(y, yi)
	}
	return x, y, nil
}

// driftFull returns the rows of s with the full shift applied to the
// same features driftStream drifts.
func driftFull(s disthd.DataSplit, seed uint64) ([][]float64, error) {
	var out [][]float64
	for i, row := range s.X {
		// A one-row stream applies the full severity to its row.
		st, err := dataset.NewDriftStream(&dataset.Dataset{X: mat.FromRows([][]float64{row}), Y: s.Y[i : i+1], Classes: s.Classes},
			dataset.DriftShift, driftFraction, driftSeverity, seed^0xd21f7)
		if err != nil {
			return nil, err
		}
		x, _, _ := st.Next()
		out = append(out, x)
	}
	return out, nil
}

// runServe is the serve workload: one UCIHAR-shaped model behind
// serve.Server on loopback HTTP; windows of the request mix, closed-loop
// and at a fixed rate; between them ordered drifted feedback from one
// client and a retrain on it; the poison probe; and the accuracy of the
// adapted model on the drifted test set.
func runServe(r *run) error {
	tiny, seed, S := r.o.tiny, r.o.seed, r.o.seconds
	setups := r.newSetups(true)
	var st *serveSetup
	if err := setups.time(func() (float64, error) {
		var err error
		st, err = r.setupServe()
		if err != nil {
			return 0, err
		}
		return st.trainS, nil
	}); err != nil {
		return err
	}
	defer st.close()
	c := newClient(st.http.url, clients, r.tr)
	defer c.close()

	pool, labels := st.test.X, st.test.Y
	ref0, img, err := snapshot(st.model)
	if err != nil {
		return err
	}
	r.e2e["model_kb"] = float64(len(img)) / 1024
	ref := referencePool(ref0, pool)

	// Warm-up: connections, pools, and the learner's accuracy baseline,
	// frozen over its first RecentWindow observations in a fixed order.
	warm := r.phase("warmup")
	lopts := learnerOptions(tiny, seed)
	for i := 0; i < lopts.RecentWindow; i++ {
		warm.done(c.learnBin("/learn", pool[i%len(pool)], labels[i%len(pool)]))
	}
	for i := 0; i < 2*len(serveMix); i++ {
		_, err := mixOp(c, "", pool, labels, newMixAnswers(i+1), i)
		warm.done(err)
	}

	// Capacity at the fixed client count, and latency at a fixed rate
	// timed from each request's due time. Between the windows: one more
	// set-up; a full learner window of ordered drifted feedback from one
	// client, whose latencies make learn_p50_ms; and a retrain on it. All
	// but the last retrain are undone with /swap, so every window serves
	// the model the reference checks.
	closedN := work(S, 0.18/windows, 2400, 2*len(serveMix))
	openN := fixedRateN(tiny)
	closedAns, openAns := newMixAnswers(windows*closedN), newMixAnswers(windows*openN)
	learnPh := r.phase("learn")
	fx, fy, err := driftStream(st.train, windows*lopts.Window, seed)
	if err != nil {
		return err
	}
	var learnLat []float64
	rt := r.newRetrainer(c, "", "/stats", serveGauges)
	load, err := r.loadPhases(closedN, openN, serveRate, func(closed bool, i int) (int, error) {
		if closed {
			return mixOp(c, "", pool, labels, closedAns, i)
		}
		return mixOp(c, "", pool, labels, openAns, i)
	}, func(k int) error {
		if err := setups.time(func() (float64, error) {
			extra, err := r.setupServe()
			if err != nil {
				return 0, err
			}
			extra.close()
			return extra.trainS, nil
		}); err != nil {
			return err
		}
		timedGC()
		for j := k * lopts.Window; j < (k+1)*lopts.Window; j++ {
			t0 := time.Now()
			err := c.learnBin("/learn", fx[j], fy[j])
			learnLat = append(learnLat, ms(time.Since(t0)))
			learnPh.done(err)
		}
		if err := rt.retrain(); err != nil {
			return err
		}
		if k < windows-1 {
			return rt.restore(img)
		}
		return nil
	})
	if err != nil {
		return err
	}
	setups.report(r)
	var g agreement
	closedAns.tally(&g, ref, labels, len(pool))
	openAns.tally(&g, ref, labels, len(pool))
	r.checkAgreement("reference/mix", &g)
	r.e2e["rows_per_s"], r.e2e["p50_ms"] = load.rowsPerS, load.p50
	r.e2e["learn_p50_ms"], r.e2e["retrain_s"] = median(learnLat), rt.times.value()

	// Poison probe: predictions are stateless, so it disturbs nothing.
	ph := r.phase("poison")
	bad := make([]float64, len(pool[0]))
	bad[0] = math.NaN()
	for i := 0; i < poisonProbes; i++ {
		_, err := c.predictBatchBin("/predict_batch", [][]float64{bad})
		if code := statusOf(err); code >= 400 && code < 500 {
			err = nil
		} else if err == nil {
			err = fmt.Errorf("NaN row answered 2xx")
		}
		ph.done(err)
	}

	// The adapted model must beat the frozen one on the drifted test set.
	ex, err := driftFull(st.test, seed)
	if err != nil {
		return err
	}
	ph = r.phase("drift_eval")
	var adapted agreement
	cur, err := c.get("/model")
	if err != nil {
		return err
	}
	refA, err := parseSnapshot(cur)
	if err != nil {
		return err
	}
	refE := referencePool(refA, ex)
	for lo := 0; lo < len(ex); lo += batchBinRows {
		hi := min(lo+batchBinRows, len(ex))
		got, err := c.predictBatchBin("/predict_batch", ex[lo:hi])
		ph.done(err)
		if err != nil {
			return err
		}
		for j, cls := range got {
			adapted.add(refE, lo+j, cls, labels[lo+j])
		}
	}
	r.checkAgreement("reference/drifted", &adapted)
	frozen := 0
	for i, x := range ex {
		if cls, _ := ref0.classify(x); cls == labels[i] {
			frozen++
		}
	}
	acc := float64(adapted.correct) / float64(adapted.labeled)
	frozenAcc := float64(frozen) / float64(len(ex))
	r.check("adapted-beats-frozen", acc > frozenAcc,
		"adapted accuracy %.4f vs frozen %.4f on %d drifted test rows", acc, frozenAcc, len(ex))
	r.e2e["accuracy"] = acc
	r.checkOnlyPoisonFails()

	if r.tr == nil {
		return nil
	}
	spans, err := r.finishTrace()
	if err != nil {
		return err
	}
	r.handlerLayers(spans, "handler.")
	h := median(byName(spans, "handler.predict_batch_bin", false))
	t := median(byName(spans, "client.predict_batch_bin", true))
	rtt := median(byName(spans, "client.predict_batch_bin", false))
	r.layer["serve.transport_us_p50"] = t
	// Medians of parts need not add up to the median of the whole; over
	// the thousands of requests of a full-size run they do within 5%, over
	// the self-check's hundred they may not.
	if !r.o.tiny {
		r.check("handler+transport", math.Abs(h+t-rtt) <= 0.05*rtt,
			"binary /predict_batch p50: handler %.1f µs + transport %.1f µs vs round trip %.1f µs", h, t, rtt)
	}
	r.layer["serve.rows_per_batch"] = st.srv.Batcher().Stats().MeanBatchRows
	r.layer["loadgen.late_p99_ms"] = p99(load.late)
	if err := r.wireProbes(pool[:min(batchBinRows, len(pool))]); err != nil {
		return err
	}
	if err := r.modelProbes(st.model, pool); err != nil {
		return err
	}
	if err := r.clusterProbe(st.model, ref, pool, labels); err != nil {
		return err
	}
	return r.learnerProbes(st.model, disthd.OnlineConfig{
		Window: lopts.Window, RecentWindow: lopts.RecentWindow, DriftThreshold: lopts.DriftThreshold, Seed: seed,
	}, fx[:lopts.Window], fy[:lopts.Window])
}

// serveGauges reads the learner gauges from a single-model /stats answer.
func serveGauges(b []byte) (*serve.LearnerSnapshot, error) {
	var s serve.Snapshot
	err := json.Unmarshal(b, &s)
	return s.Learner, err
}

// retrainer times retrains of the learner behind prefix, each from POST
// /retrain until /stats shows its outcome. The retrains are forced: the
// gate still judges each challenger and its verdict is counted, but
// every one publishes and runs the full-window refit, so each run times
// the same stages whatever the seed makes the gate decide.
type retrainer struct {
	c                  *client
	prefix, statsRoute string
	gauges             func([]byte) (*serve.LearnerSnapshot, error)
	ph                 *phase
	times              *meter
}

func (r *run) newRetrainer(c *client, prefix, statsRoute string, gauges func([]byte) (*serve.LearnerSnapshot, error)) *retrainer {
	return &retrainer{c: c, prefix: prefix, statsRoute: statsRoute, gauges: gauges, ph: r.phase("retrain"), times: r.newMeter("retrain_s", false)}
}

// learner reads the current learner gauges.
func (t *retrainer) learner() (*serve.LearnerSnapshot, error) {
	b, err := t.c.get(t.statsRoute)
	if err != nil {
		return nil, err
	}
	g, err := t.gauges(b)
	if err == nil && g == nil {
		err = fmt.Errorf("no learner gauges in %s", t.statsRoute)
	}
	return g, err
}

// retrain runs one retrain and waits until its outcome is visible.
func (t *retrainer) retrain() error {
	before, err := t.learner()
	if err != nil {
		return err
	}
	timedGC()
	iv := startInterval()
	if _, err := t.c.post(t.prefix+"/retrain?force=1", "application/json", nil); err != nil {
		t.ph.done(err)
		return err
	}
	for {
		now, err := t.learner()
		if err != nil {
			return err
		}
		if !now.Retraining && now.Retrains+now.GateRejects+now.RetrainErrors > before.Retrains+before.GateRejects+before.RetrainErrors {
			if now.RetrainErrors > before.RetrainErrors {
				err = fmt.Errorf("retrain failed")
			}
			t.ph.done(err)
			t.times.add(time.Since(iv.t0).Seconds(), iv.busyKept())
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// restore swaps the model snapshot img back in, undoing a retrain.
func (t *retrainer) restore(img []byte) error {
	_, err := t.c.post(t.prefix+"/swap", "application/octet-stream", img)
	return err
}

// checkOnlyPoisonFails checks that no operation outside the poison probe
// failed.
func (r *run) checkOnlyPoisonFails() {
	var others int64
	for _, p := range r.phases {
		if p.name != "poison" {
			others += p.failed.Load()
		}
	}
	r.check("only-poison-fails", others == 0, "%d operations outside the poison probe failed", others)
}
