package main

import (
	"context"

	"repro"
	"repro/serve"
	"repro/serve/cluster"
)

const (
	// clusterRows is the rows per coordinator request; the coordinator
	// splits them into one chunk per worker.
	clusterRows = 16
	// clusterRequests is how many requests the coordinator probe sends:
	// two worker calls each, so the worker p99 has twenty samples beyond it.
	clusterRequests = 1000
)

// spanTransport times each worker call of the coordinator as a span
// under the coordinator request that made it. It keeps the
// BatchPreparer path: PrepareBatch comes from the embedded transport.
type spanTransport struct {
	*cluster.HTTPTransport
	tr *tracer
}

func (t spanTransport) PredictPrepared(ctx context.Context, worker string, pb cluster.PreparedBatch) ([]int, error) {
	sp := t.tr.begin("cluster.worker", spanFrom(ctx))
	defer sp.end()
	return t.HTTPTransport.PredictPrepared(ctx, worker, pb)
}

func (t spanTransport) PredictBatch(ctx context.Context, worker string, rows [][]float64) ([]int, error) {
	sp := t.tr.begin("cluster.worker", spanFrom(ctx))
	defer sp.end()
	return t.HTTPTransport.PredictBatch(ctx, worker, rows)
}

// clusterSetup is a coordinator with its two workers.
type clusterSetup struct {
	workers    []*serve.Server
	workerHTTP []*httpServer
	coord      *cluster.Server
	http       *httpServer
}

func (s *clusterSetup) close() {
	if s.http != nil {
		s.http.close()
	}
	if s.coord != nil {
		_ = s.coord.Close() // closes the coordinator; its own listener never started
	}
	for i, w := range s.workers {
		_ = w.Close()
		s.workerHTTP[i].close()
	}
}

// setupCluster starts two in-process workers serving m on loopback HTTP
// behind a coordinator that speaks the binary wire to them and holds m
// as its fallback; probes and hedging stay off. Worker calls, and the
// coordinator's and workers' handlers, are recorded as spans on tr.
func setupCluster(m *disthd.Model, tr *tracer, seed uint64) (*clusterSetup, error) {
	st := &clusterSetup{}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := serve.New(m, serve.Options{})
		if err != nil {
			st.close()
			return nil, err
		}
		hs, err := startHTTP(w.Handler(), tr, "worker.")
		if err != nil {
			w.Close()
			st.close()
			return nil, err
		}
		st.workers, st.workerHTTP = append(st.workers, w), append(st.workerHTTP, hs)
		addrs = append(addrs, hs.url)
	}
	ht := cluster.NewHTTPTransport()
	ht.Wire = cluster.WireBinary
	coord, err := cluster.New(cluster.Config{Workers: addrs, Transport: spanTransport{HTTPTransport: ht, tr: tr}, Fallback: m, Seed: seed})
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = cluster.NewServer(coord)
	if st.http, err = startHTTP(st.coord.Handler(), tr, "coord."); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// clusterProbe measures the cluster layer on the serve workload's traced
// run: binary /predict_batch requests of clusterRows rows through
// cluster.Coordinator to two in-process workers serving m, closed-loop
// from the workload's clients. Its spans go to a tracer of their own, so
// they leave the serve layer metrics alone. Every answer is checked
// against the reference scorer, and no row may fall back to the local
// model while both workers are healthy.
func (r *run) clusterProbe(m *disthd.Model, ref refAnswers, pool [][]float64, labels []int) error {
	tr := newTracer()
	st, err := setupCluster(m, tr, r.o.seed)
	if err != nil {
		return err
	}
	defer st.close()
	c := newClient(st.http.url, clients, tr)
	defer c.close()
	n := clusterRequests
	if r.o.tiny {
		n = 50
	}
	ph := r.phase("cluster_probe")
	rowsFor := func(i int) int { return (i * 37) % (len(pool) - clusterRows + 1) }
	ans := make([][]int, n)
	closedLoop(n, clients, func(i int) {
		start := rowsFor(i)
		got, err := c.predictBatchBin("/predict_batch", pool[start:start+clusterRows])
		ans[i] = got
		ph.done(err)
	})
	var g agreement
	for i, got := range ans {
		for j, cls := range got {
			g.add(ref, rowsFor(i)+j, cls, labels[rowsFor(i)+j])
		}
	}
	r.checkAgreement("reference/cluster", &g)
	snap := st.coord.Stats()
	r.check("no-fallback", ph.failed.Load() == 0 && snap.FallbackRows == 0 && snap.Dropped == 0 && snap.Available == 2,
		"%d requests failed, %d rows fell back to the local model and %d were dropped with %d of 2 workers available",
		ph.failed.Load(), snap.FallbackRows, snap.Dropped, snap.Available)

	spans := tr.finish()
	path, err := writeSpans(r.o.traceDir, r.o.workload+"-cluster", r.o.seed, spans)
	if err != nil {
		return err
	}
	r.logf("cluster probe: %d requests of %d rows through the coordinator from %d clients; %d spans written to %s",
		n, clusterRows, clients, len(spans), path)
	rtt := byName(spans, "cluster.worker", false)
	r.layer["cluster.worker_rtt_us_p50"] = median(rtt)
	r.layer["cluster.worker_rtt_us_p99"] = p99(rtt)
	r.layer["cluster.coordinator_us_p50"] = median(byName(spans, "coord.predict_batch_bin", true))
	r.layer["cluster.retries"] = float64(snap.Retries)
	r.layer["cluster.hedges"] = float64(snap.Hedges)
	r.layer["cluster.fallback_rows"] = float64(snap.FallbackRows)
	return nil
}
