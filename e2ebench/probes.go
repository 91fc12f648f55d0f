package main

import (
	"bytes"
	"time"

	"repro"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
	"repro/serve/wire"
)

// probeReps is how many times a layer probe repeats its call; the probe
// reports the median.
const probeReps = 41

// modelProbes times, on one batch of the workload's rows, the layer
// calls a prediction runs through: replica construction
// (Model.NewReplica), a replica's batched predict (Replica.PredictBatch),
// and for f32 models the encode GEMM (RBF.EncodeBatchInto) and class
// scoring (Model.ScoreBatchInto), rebuilt from the model's snapshot.
func (r *run) modelProbes(m *disthd.Model, rows [][]float64) error {
	batch := min(len(rows), 64)
	rows = rows[:batch]
	rep, err := m.NewReplica(batch)
	if err != nil {
		return err
	}
	r.layer["disthd.new_replica_us"] = timeMedian(probeReps, 1, func() { _, _ = m.NewReplica(batch) })
	out := make([]int, batch)
	key := "disthd.predict_us_per_row"
	if m.Quantized() {
		key = "bitpack.predict_us_per_row"
	}
	r.layer[key] = timeMedian(probeReps, batch, func() { _, _ = rep.PredictBatch(m, rows, out) })
	if m.Quantized() {
		return nil
	}
	ref, _, err := snapshot(m)
	if err != nil {
		return err
	}
	enc, err := encoding.NewRBFFromParams(mat.View(ref.dim, ref.features, ref.base), ref.phase, ref.sigma, 1)
	if err != nil {
		return err
	}
	cls := model.New(ref.classes, ref.dim)
	copy(cls.Weights.Data, ref.weights)
	cls.RefreshNorms()
	X, H, S := mat.FromRows(rows), mat.New(batch, ref.dim), mat.New(batch, ref.classes)
	encUs := timeMedian(probeReps, batch, func() { enc.EncodeBatchInto(X, H) })
	r.layer["encoding.encode_us_per_row"] = encUs
	r.layer["model.score_us_per_row"] = timeMedian(probeReps, batch, func() { cls.ScoreBatchInto(H, S) })
	if _, ok := r.layer["encoding.encode_gflops"]; !ok {
		r.layer["encoding.encode_gflops"] = 2 * float64(ref.features*ref.dim) / (encUs * 1e3)
	}
	return nil
}

// wireProbes times encoding and decoding one binary matrix frame of the
// rows, as the client and the server handler do per request.
func (r *run) wireProbes(rows [][]float64) error {
	cols := len(rows[0])
	frame, err := wire.AppendMatrixF64(nil, rows, cols)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(frame))
	r.layer["wire.encode_us_per_frame"] = timeMedian(probeReps, 1, func() {
		buf, _ = wire.AppendMatrixF64(buf[:0], rows, cols)
	})
	dst := make([]float64, len(rows)*cols)
	var rd bytes.Reader
	d := wire.NewDecoder(&rd)
	r.layer["wire.decode_us_per_frame"] = timeMedian(probeReps, 1, func() {
		rd.Reset(frame)
		d.Reset(&rd)
		if _, err := d.Next(); err == nil {
			if _, _, err := d.MatrixDims(); err == nil {
				_ = d.Floats(dst)
			}
		}
	})
	r.layer["wire.bytes_per_row"] = float64(len(frame)) / float64(len(rows))
	return nil
}

// learnerProbes replays labeled feedback through an OnlineLearner bound
// to m, timing each Observe, then times one warm Model.Retrain on the
// window's training slice and the Gate.Evaluate that judges it.
func (r *run) learnerProbes(m *disthd.Model, cfg disthd.OnlineConfig, xs [][]float64, ys []int) error {
	l, err := disthd.NewOnlineLearner(m, cfg)
	if err != nil {
		return err
	}
	obs := make([]float64, len(xs))
	for i, x := range xs {
		t0 := time.Now()
		if _, err := l.Observe(x, ys[i]); err != nil {
			return err
		}
		obs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	r.layer["disthd.observe_us"] = median(obs)
	tx, ty, hx, hy := l.SplitWindow()
	t0 := time.Now()
	next, err := m.Retrain(tx, ty, l.Config().Retrain)
	if err != nil {
		return err
	}
	r.layer["disthd.retrain_ms"] = ms(time.Since(t0))
	gate := disthd.NewGate(disthd.GateConfig{})
	t0 = time.Now()
	if _, err := gate.Evaluate(m, next, hx, hy); err != nil {
		return err
	}
	r.layer["disthd.gate_ms"] = ms(time.Since(t0))
	return nil
}
