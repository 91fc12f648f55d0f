package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro"
	"repro/serve"
	"repro/serve/registry"
)

// tenantDef is one tenant of the tenants workload. The shapes differ so
// every wake rebuilds scratch of another size.
type tenantDef struct {
	id, demo  string
	dim       int
	scale     float64
	learn     bool
	quantized bool
}

var tenantDefs = []tenantDef{
	{id: "har", demo: "UCIHAR", dim: 256, scale: 0.25, learn: true},
	{id: "isolet1b", demo: "ISOLET", dim: 256, scale: 0.2, quantized: true},
	{id: "pamap", demo: "PAMAP2", dim: 128, scale: 0.1, learn: true},
	{id: "mnist", demo: "MNIST", dim: 256, scale: 0.1},
	{id: "diabetes", demo: "DIABETES", dim: 128, scale: 0.1, learn: true},
	{id: "har128", demo: "UCIHAR", dim: 128, scale: 0.15},
}

const (
	// tenantBudget is the registry's replica budget; every tenant costs
	// one replica while resident, so most requests park one tenant and
	// wake another.
	tenantBudget = 2
	tenantRate   = 250
	tenantBin    = 16
	tenantJSON   = 4
)

// tenantOrder is the tenant sequence requests cycle through: no tenant
// follows itself, so with two clients a resident tenant is rarely hit
// twice in a row.
var tenantOrder = []int{0, 3, 1, 4, 2, 5}

// tenant is one installed tenant with its request pool.
type tenant struct {
	def   tenantDef
	model *disthd.Model
	test  disthd.DataSplit
	img   []byte // Model.Save snapshot, restored after each retrain
	ref   refAnswers
	sent  atomic.Int64 // /learn frames answered
}

// tenantSetup is one set-up registry.
type tenantSetup struct {
	tenants []*tenant
	trainS  float64
	reg     *registry.Registry
	srv     *registry.Server
	http    *httpServer
}

func (s *tenantSetup) close() {
	_ = s.srv.Close() // drains every tenant; its own listener never started
	s.http.close()
}

func tenantLearner(tiny bool, seed uint64) *serve.LearnerOptions {
	o := &serve.LearnerOptions{Window: 128, RecentWindow: 32, DriftThreshold: fixedBudget, Seed: seed}
	if tiny {
		o.Window, o.RecentWindow = 48, 16
	}
	return o
}

// setupTenants trains every tenant and installs it in a fresh registry
// behind an HTTP listener.
func (r *run) setupTenants() (*tenantSetup, error) {
	st := &tenantSetup{}
	reg, err := registry.New(tenantBudget)
	if err != nil {
		return nil, err
	}
	st.reg = reg
	st.srv = registry.NewServer(reg)
	for i, d := range tenantDefs {
		seed := r.o.seed + uint64(i)
		cfg := trainConfig(r.o.tiny, seed)
		cfg.Dim = d.dim
		scale := d.scale
		if r.o.tiny {
			cfg.Dim, scale = d.dim/4, 0.01
		}
		train, test, err := disthd.SyntheticBenchmark(d.demo, scale, seed)
		if err != nil {
			st.srv.Close()
			return nil, err
		}
		t0 := time.Now()
		m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		st.trainS += time.Since(t0).Seconds()
		if err == nil && d.quantized {
			m, err = m.Quantize1Bit()
		}
		if err != nil {
			st.srv.Close()
			return nil, err
		}
		spec := registry.Spec{Options: serve.Options{Replicas: 1, MaxBatch: 64}}
		if d.learn {
			spec.Learner = tenantLearner(r.o.tiny, seed)
		}
		if err := reg.Install(d.id, m, spec); err != nil {
			st.srv.Close()
			return nil, err
		}
		st.tenants = append(st.tenants, &tenant{def: d, model: m, test: test})
	}
	st.http, err = startHTTP(st.srv.Handler(), r.tr, "handler.")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	return st, nil
}

// tenantOp sends operation i of the tenants mix: the tenant cycles
// through tenantOrder, and per tenant the requests alternate binary and
// JSON /predict_batch, with every fourth a labeled /learn on learning
// tenants.
func tenantOp(c *client, ts []*tenant, i int, ans *mixAnswers) error {
	t := ts[tenantOrder[i%len(tenantOrder)]]
	prefix := "/t/" + t.def.id
	pool := t.test.X
	kind := (i / len(tenantOrder)) % 4
	start := (i * 13) % (len(pool) - tenantBin + 1)
	var err error
	switch {
	case kind == 3 && t.def.learn:
		if err = c.learnBin(prefix+"/learn", pool[start], t.test.Y[start]); err == nil {
			t.sent.Add(1)
		}
		return err
	case kind == 1:
		ans.batch[i], err = c.predictBatchJSON(prefix+"/predict_batch", pool[start:start+tenantJSON])
	default:
		ans.batch[i], err = c.predictBatchBin(prefix+"/predict_batch", pool[start:start+tenantBin])
	}
	return err
}

// tallyTenants checks a tenants phase's answers against each tenant's
// reference.
func tallyTenants(g *agreement, ts []*tenant, ans *mixAnswers) {
	for i, got := range ans.batch {
		t := ts[tenantOrder[i%len(tenantOrder)]]
		start := (i * 13) % (len(t.test.X) - tenantBin + 1)
		for j, c := range got {
			g.add(t.ref, start+j, c, t.test.Y[start+j])
		}
	}
}

// tenantLearner reads the learner gauges from a /t/{id}/stats answer,
// live while the tenant is resident, frozen while it is parked.
func tenantGauges(b []byte) (*serve.LearnerSnapshot, error) {
	var ts registry.TenantStats
	if err := json.Unmarshal(b, &ts); err != nil {
		return nil, err
	}
	if ts.Serve != nil && ts.Serve.Learner != nil {
		return ts.Serve.Learner, nil
	}
	return ts.Learner, nil
}

// runTenants is the tenants workload: six small tenants of different
// shapes behind serve/registry with a replica budget of two, so park,
// wake, learner export/restore and replica allocation dominate.
func runTenants(r *run) error {
	S := r.o.seconds
	setups := r.newSetups(true)
	var st *tenantSetup
	if err := setups.time(func() (float64, error) {
		var err error
		st, err = r.setupTenants()
		if err != nil {
			return 0, err
		}
		return st.trainS, nil
	}); err != nil {
		return err
	}
	defer st.close()
	var kb float64
	for _, t := range st.tenants {
		ref, img, err := snapshot(t.model)
		if err != nil {
			return err
		}
		kb += float64(len(img)) / 1024
		t.img, t.ref = img, referencePool(ref, t.test.X)
	}
	r.e2e["model_kb"] = kb
	c := newClient(st.http.url, clients, r.tr)
	defer c.close()

	warm := r.phase("warmup")
	for i := 0; i < 4*len(tenantOrder); i++ {
		warm.done(tenantOp(c, st.tenants, i, newMixAnswers(i+1)))
	}

	// Between the windows: one more set-up; a chunk of drifted labeled
	// feedback from one client rotating over the learning tenants, so
	// every frame wakes its tenant, whose latencies make learn_p50_ms; and
	// a retrain of the first learning tenant, undone with /swap so it
	// keeps serving the model the reference checks.
	var learners []*tenant
	for _, t := range st.tenants {
		if t.def.learn {
			learners = append(learners, t)
		}
	}
	before := st.reg.Stats()
	closedN := work(S, 0.15/windows, 1500, 4*len(tenantOrder))
	openN := fixedRateN(r.o.tiny)
	closedAns, openAns := newMixAnswers(windows*closedN), newMixAnswers(windows*openN)
	// Each window's chunk refills every learner's window once.
	lopts := tenantLearner(r.o.tiny, r.o.seed)
	learnPh, learnN := r.phase("learn"), len(learners)*lopts.Window
	feedback := make([]struct {
		x [][]float64
		y []int
	}, len(learners))
	for i, t := range learners {
		var err error
		if feedback[i].x, feedback[i].y, err = driftStream(t.test, windows*lopts.Window, r.o.seed+uint64(i)); err != nil {
			return err
		}
	}
	var learnLat []float64
	rt := r.newRetrainer(c, "/t/"+learners[0].def.id, "/t/"+learners[0].def.id+"/stats", tenantGauges)
	load, err := r.loadPhases(closedN, openN, tenantRate, func(closed bool, i int) (int, error) {
		ans := openAns
		if closed {
			ans = closedAns
		}
		err := tenantOp(c, st.tenants, i, ans)
		return len(ans.batch[i]), err
	}, func(k int) error {
		if err := setups.time(func() (float64, error) {
			extra, err := r.setupTenants()
			if err != nil {
				return 0, err
			}
			extra.close()
			return extra.trainS, nil
		}); err != nil {
			return err
		}
		timedGC()
		for j := 0; j < learnN; j++ {
			i := k*learnN + j
			t, fb, row := learners[i%len(learners)], feedback[i%len(learners)], i/len(learners)
			t0 := time.Now()
			err := c.learnBin("/t/"+t.def.id+"/learn", fb.x[row], fb.y[row])
			learnLat = append(learnLat, ms(time.Since(t0)))
			learnPh.done(err)
			if err == nil {
				t.sent.Add(1)
			}
		}
		if err := rt.retrain(); err != nil {
			return err
		}
		return rt.restore(learners[0].img)
	})
	if err != nil {
		return err
	}
	after := st.reg.Stats()
	requests := load.requests + len(learnLat)
	setups.report(r)
	var g agreement
	tallyTenants(&g, st.tenants, closedAns)
	tallyTenants(&g, st.tenants, openAns)
	r.checkAgreement("reference/tenants", &g)
	r.e2e["accuracy"] = float64(g.correct) / float64(g.labeled)
	r.e2e["rows_per_s"], r.e2e["p50_ms"] = load.rowsPerS, load.p50
	r.e2e["learn_p50_ms"], r.e2e["retrain_s"] = median(learnLat), rt.times.value()

	// Every learner counted exactly the frames sent to it, across all the
	// parks and wakes in between.
	for _, t := range learners {
		b, err := c.get("/t/" + t.def.id + "/stats")
		if err != nil {
			return err
		}
		gauges, err := tenantGauges(b)
		if err != nil || gauges == nil {
			return fmt.Errorf("tenant %s stats carry no learner gauges: %v", t.def.id, err)
		}
		r.check("learner-continuity/"+t.def.id, gauges.Feedback == uint64(t.sent.Load()),
			"learner observed %d frames, %d were sent across park/wake", gauges.Feedback, t.sent.Load())
	}
	final := st.reg.Stats()
	r.check("churn", final.Evictions > 0 && final.AdmissionRejections == 0,
		"%d evictions, %d wakes, %d admission rejections", final.Evictions, final.Wakes, final.AdmissionRejections)
	r.checkOnlyPoisonFails()

	if r.tr == nil {
		return nil
	}
	r.layer["registry.wakes"] = 1000 * float64(after.Wakes-before.Wakes) / float64(requests)
	r.layer["registry.evictions"] = 1000 * float64(after.Evictions-before.Evictions) / float64(requests)
	r.layer["loadgen.late_p99_ms"] = p99(load.late)
	spans, err := r.finishTrace()
	if err != nil {
		return err
	}
	r.handlerLayers(spans, "handler.")
	if err := r.acquireProbes(st); err != nil {
		return err
	}
	if err := r.learnerStateProbes(st.tenants[0]); err != nil {
		return err
	}
	for _, i := range []int{1, 0} { // the 1-bit tenant, then an f32 one
		if err := r.modelProbes(st.tenants[i].model, st.tenants[i].test.X); err != nil {
			return err
		}
	}
	return nil
}

// acquireProbes times Registry.Acquire through the Go API on the same
// tenant cycle; an Acquire that found its tenant parked is a wake.
func (r *run) acquireProbes(st *tenantSetup) error {
	n := 20 * len(tenantOrder)
	var acq, wake []float64
	for i := 0; i < n; i++ {
		t := st.tenants[tenantOrder[i%len(tenantOrder)]]
		ts, err := st.reg.TenantStats(t.def.id)
		if err != nil {
			return err
		}
		t0 := time.Now()
		unit, err := st.reg.Acquire(t.def.id)
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return err
		}
		_, err = unit.Server().Batcher().PredictBatch(t.test.X[:tenantBin])
		st.reg.Release(unit)
		if err != nil {
			return err
		}
		acq = append(acq, d)
		if !ts.Resident {
			wake = append(wake, d/1e3)
		}
	}
	r.layer["registry.acquire_us_p50"] = median(acq)
	r.layer["registry.acquire_us_p99"] = p99(acq)
	r.layer["registry.wake_ms_p50"] = median(wake)
	return nil
}

// learnerStateProbes times the park-time snapshot of a learning tenant's
// learner (serve.Learner.Export) and the wake-time rebuild
// (serve.RestoreLearner) on a full feedback window.
func (r *run) learnerStateProbes(t *tenant) error {
	opts := *tenantLearner(r.o.tiny, r.o.seed)
	sw, err := serve.NewSwapper(t.model)
	if err != nil {
		return err
	}
	l, err := serve.NewLearner(sw, opts)
	if err != nil {
		return err
	}
	for i := 0; i < opts.Window; i++ {
		if _, err := l.Feed(t.test.X[i%t.test.Len()], t.test.Y[i%t.test.Len()]); err != nil {
			return err
		}
	}
	var snap *serve.LearnerState
	r.layer["serve.learner_export_ms"] = timeMedian(probeReps, 1, func() { snap = l.Export() }) / 1e3
	var rerr error
	r.layer["serve.learner_restore_ms"] = timeMedian(probeReps, 1, func() {
		_, rerr = serve.RestoreLearner(sw, opts, snap)
	}) / 1e3
	return rerr
}
