package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro"
)

// The reference scorer recomputes a model's answers in plain Go from its
// serialized parameters, apart from every kernel of the program: the RBF
// encoding h_d = cos(B_d·x + c_d)·sin(B_d·x), then the cosine argmax
// against the class hypervectors (f32 models) or the sign-agreement
// argmax against the packed class bits (1-bit models).
//
// Kernels sum in a different order (FMA lanes, blocking) than this
// scorer, so an answer may differ from it only where the two best
// classes tie within these tolerances.
const (
	// cosineTieTol is the largest gap between the two best cosine scores
	// at which the answer may go either way.
	cosineTieTol = 1e-9
	// signTieEps is the activation magnitude below which a packed query
	// bit may come out either way; the 1-bit tier projects in float32.
	signTieEps = 1e-4
)

// refModel is a model decoded from the Model.Save format.
type refModel struct {
	features, dim, classes int
	sigma                  float64
	base                   []float64 // dim × features, row-major
	phase                  []float64
	weights                []float64 // classes × dim (f32 models)
	norms                  []float64
	packed                 [][]uint64 // class sign words (1-bit models)
}

// snapshot serializes m with Save and decodes it for the reference.
func snapshot(m *disthd.Model) (*refModel, []byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, nil, err
	}
	ref, err := parseSnapshot(buf.Bytes())
	return ref, buf.Bytes(), err
}

// parseSnapshot decodes a Model.Save byte image: magic, version,
// features, dim, classes, sigma, the base matrix, the phases, then the
// class weights (version 1) or packed class sign words (version 2).
func parseSnapshot(b []byte) (*refModel, error) {
	r := bytes.NewReader(b)
	var hdr [5]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("reference: header: %w", err)
	}
	if hdr[0] != 0x44485644 || (hdr[1] != 1 && hdr[1] != 2) {
		return nil, fmt.Errorf("reference: not a model snapshot (magic %x version %d)", hdr[0], hdr[1])
	}
	m := &refModel{features: int(hdr[2]), dim: int(hdr[3]), classes: int(hdr[4])}
	m.base = make([]float64, m.dim*m.features)
	m.phase = make([]float64, m.dim)
	for _, dst := range []any{&m.sigma, m.base, m.phase} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("reference: encoder: %w", err)
		}
	}
	if hdr[1] == 2 {
		words := (m.dim + 63) / 64
		for c := 0; c < m.classes; c++ {
			row := make([]uint64, words)
			if err := binary.Read(r, binary.LittleEndian, row); err != nil {
				return nil, fmt.Errorf("reference: packed classes: %w", err)
			}
			m.packed = append(m.packed, row)
		}
	} else {
		m.weights = make([]float64, m.classes*m.dim)
		if err := binary.Read(r, binary.LittleEndian, m.weights); err != nil {
			return nil, fmt.Errorf("reference: weights: %w", err)
		}
		m.norms = make([]float64, m.classes)
		for c := range m.norms {
			var s float64
			for _, w := range m.weights[c*m.dim : (c+1)*m.dim] {
				s += w * w
			}
			m.norms[c] = math.Sqrt(s)
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("reference: trailing bytes after the model")
	}
	return m, nil
}

// encode computes the RBF hypervector of x.
func (m *refModel) encode(x []float64) []float64 {
	h := make([]float64, m.dim)
	for d := range h {
		var z float64
		for j, b := range m.base[d*m.features : (d+1)*m.features] {
			z += b * x[j]
		}
		h[d] = math.Cos(z+m.phase[d]) * math.Sin(z)
	}
	return h
}

// classify returns the reference class of x and whether the two best
// classes tie within the tolerance (so another answer is acceptable).
func (m *refModel) classify(x []float64) (best int, tie bool) {
	h := m.encode(x)
	scores := make([]float64, m.classes)
	tol := cosineTieTol
	if m.packed != nil {
		uncertain := 0
		q := make([]uint64, (m.dim+63)/64)
		for d, v := range h {
			if v >= 0 {
				q[d/64] |= 1 << uint(d%64)
			}
			if math.Abs(v) < signTieEps {
				uncertain++
			}
		}
		for c, row := range m.packed {
			agree := m.dim
			for j, w := range row {
				agree -= bits.OnesCount64(w ^ q[j])
			}
			scores[c] = float64(agree)
		}
		// Each uncertain bit moves a class's agreement by at most one.
		tol = float64(2 * uncertain)
	} else {
		var hn float64
		for _, v := range h {
			hn += v * v
		}
		hn = math.Sqrt(hn)
		for c := range scores {
			if m.norms[c] == 0 || hn == 0 {
				continue
			}
			var dot float64
			for d, w := range m.weights[c*m.dim : (c+1)*m.dim] {
				dot += w * h[d]
			}
			scores[c] = dot / (hn * m.norms[c])
		}
	}
	best, second := -1, -1
	for c, s := range scores {
		if best < 0 || s > scores[best] {
			best, second = c, best
		} else if second < 0 || s > scores[second] {
			second = c
		}
	}
	return best, second >= 0 && scores[best]-scores[second] <= tol
}

// refAnswers holds the reference answer for each row of a fixed pool.
type refAnswers struct {
	class []int
	tie   []bool
}

func referencePool(m *refModel, rows [][]float64) refAnswers {
	a := refAnswers{class: make([]int, len(rows)), tie: make([]bool, len(rows))}
	for i, x := range rows {
		a.class[i], a.tie[i] = m.classify(x)
	}
	return a
}

// agreement tallies program answers against the reference.
type agreement struct {
	answers, mismatches, ties int64
	correct, labeled          int64
}

// add compares one answer for pool row i; label < 0 means unlabeled.
func (g *agreement) add(ref refAnswers, i, got, label int) {
	g.answers++
	if got != ref.class[i] {
		if ref.tie[i] {
			g.ties++
		} else {
			g.mismatches++
		}
	}
	if label >= 0 {
		g.labeled++
		if got == label {
			g.correct++
		}
	}
}

func (g *agreement) merge(o *agreement) {
	g.answers += o.answers
	g.mismatches += o.mismatches
	g.ties += o.ties
	g.correct += o.correct
	g.labeled += o.labeled
}

// checkAgreement records the reference verdict for a set of answers.
func (r *run) checkAgreement(name string, g *agreement) {
	r.check(name, g.answers > 0 && g.mismatches == 0,
		"%d answers, %d disagree with the reference scorer, %d more differ on a top-two tie", g.answers, g.mismatches, g.ties)
}
