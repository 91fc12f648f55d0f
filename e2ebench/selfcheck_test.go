package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro"
)

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size and asserts that its correctness checks pass and that its result
// line carries exactly the metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"train", "serve", "tenants"} {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := opts{workload: w, seed: 3, seconds: 1, trace: trace, tiny: true, traceDir: t.TempDir()}
				if err := execute(o, &out); err != nil {
					t.Fatalf("run failed: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct {
					t.Fatalf("checks failed:\n%s", out.String())
				}
				wantFailed := int64(0)
				if w == "serve" {
					wantFailed = poisonProbes // until ingress rejects NaN
				}
				if res.Failed != wantFailed || res.Attempted <= res.Failed {
					t.Errorf("failed %d of %d operations, want %d failed", res.Failed, res.Attempted, wantFailed)
				}
				defs := e2eMetrics
				if trace {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestReferenceCatchesWrongAnswers proves the reference check can fail:
// answers shifted by one class disagree with it.
func TestReferenceCatchesWrongAnswers(t *testing.T) {
	train, test, err := disthd.SyntheticBenchmark("DIABETES", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trainConfig(true, 5)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []func() (*disthd.Model, error){
		func() (*disthd.Model, error) { return m, nil },
		m.Quantize1Bit,
	} {
		mm, err := model()
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := snapshot(mm)
		if err != nil {
			t.Fatal(err)
		}
		pool := referencePool(ref, test.X)
		got, err := mm.PredictBatch(test.X)
		if err != nil {
			t.Fatal(err)
		}
		var right, wrong agreement
		for i, c := range got {
			right.add(pool, i, c, test.Y[i])
			wrong.add(pool, i, (c+1)%mm.Classes(), test.Y[i])
		}
		if right.mismatches != 0 {
			t.Errorf("quantized=%v: %d program answers disagree with the reference", mm.Quantized(), right.mismatches)
		}
		if wrong.mismatches+wrong.ties != wrong.answers || wrong.mismatches == 0 {
			t.Errorf("quantized=%v: shifted answers: %d mismatches, %d ties of %d", mm.Quantized(), wrong.mismatches, wrong.ties, wrong.answers)
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals, overlapping ones counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 1, Start: 95, End: 120},
	}
	spans := tr.finish()
	if got := spans[0].Self; got != 100-40-10-5 {
		t.Errorf("self time %d, want 45", got)
	}
	if got := spans[1].Self; got != 20 {
		t.Errorf("leaf self time %d, want its duration 20", got)
	}
}
