package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/reduction"
	"repro/internal/stats"
)

// paperGrid is the retained-dimensionality grid of the musk-like curves:
// dense where the curves peak, plus the full-dims point the paper compares
// the optimum against.
var paperGrid = []int{2, 4, 8, 12, 16, 24, 32, 64, 166}

// noisyBGrid is the Fig. 15 grid on noisy set B (279 dims).
var noisyBGrid = []int{1, 3, 5, 8, 11, 15, 21, 40, 80, 150, 279}

// paperSweep runs the paper's own program: studentized PCA with coherence
// on the musk-like set, then feature-stripped class-match curves in
// eigenvalue and coherence order. One operation is one curve point.
type paperSweep struct {
	seed   int64
	ds     *dataset.Dataset
	pca    *reduction.PCA
	noisy  *dataset.Dataset
	npca   *reduction.PCA
	orders [2][]int

	acc map[[2]int]float64 // (order, dims) → accuracy in the timed phase
}

var orderings = [2]reduction.Ordering{reduction.ByEigenvalue, reduction.ByCoherence}

// paperSetups is how many full set-ups paper-sweep times; setup_s is
// their median.
const paperSetups = 5

func (w *paperSweep) setup(tr *tracer) (float64, error) {
	var err error
	s := setupSeconds(paperSetups, 1, func() {
		tr.do("setup.paper", func() {
			var ds *dataset.Dataset
			if ds, _, err = musk(w.seed, 0); err != nil {
				return
			}
			w.ds = ds
			if w.pca, err = reduction.Fit(ds.X, reduction.Options{Scaling: reduction.ScalingStudentize, ComputeCoherence: true}); err != nil {
				return
			}
			w.noisy, _ = synthetic.NoisyDataB(w.seed)
			w.npca, err = reduction.Fit(w.noisy.X, reduction.Options{ComputeCoherence: true})
		})
	})
	if err != nil {
		return 0, err
	}
	for i, o := range orderings {
		w.orders[i] = w.pca.Order(o)
	}
	w.acc = map[[2]int]float64{}
	return s, nil
}

// warm runs one cheap curve point so first-touch costs fall before timing.
func (w *paperSweep) warm() {
	eval.Sweep(w.ds, w.pca, w.orders[0], "warm", eval.SweepConfig{Dims: []int{2}})
}

// run evaluates whole rounds of the grid in both orders until d has
// passed. One round takes longer than the benchmark's --seconds on the
// reference machine, so a phase is one round.
func (w *paperSweep) run(tr *tracer, d time.Duration) ([]opSample, *phase, int) {
	var ops []opSample
	p := beginPhase()
	for p.start.Add(d).After(time.Now()) {
		for oi, order := range w.orders {
			for _, m := range paperGrid {
				t := time.Now()
				c := eval.Sweep(w.ds, w.pca, order, orderings[oi].String(), eval.SweepConfig{Dims: []int{m}})
				end := time.Now()
				tr.record("eval.Sweep", 0, t, end)
				ops = append(ops, opSample{lat: end.Sub(t), done: end})
				w.acc[[2]int{oi, m}] = c.Points[0].Accuracy
			}
		}
	}
	p.end()
	return ops, p, 0
}

// check recomputes the curve at a seed-chosen grid point in each order
// with the independent oracle and evaluates it again through the program,
// which must repeat the timed phase's accuracy exactly; it checks the
// fitted basis is an eigenbasis of the studentized data, and the paper's
// Fig. 15 property on noisy set B: the coherence-ordered optimum beats the
// eigenvalue-ordered one.
func (w *paperSweep) check() error {
	n, d := w.ds.X.Dims()
	x := flat(w.ds.X)
	v := flat(w.pca.Components)
	if res := eigenResidual(x, n, d, v, w.orders[0][:16], true); res > 1e-8 {
		return fmt.Errorf("paper-sweep: fitted components are no eigenbasis of the studentized data (residual %.3g)", res)
	}
	r := rowSeed(w.seed, -1)
	for oi := range w.orders {
		m := paperGrid[r.intn(len(paperGrid)-1)] // the full-dims point costs the oracle most and is covered by every smaller prefix
		got, ok := w.acc[[2]int{oi, m}]
		if !ok {
			return fmt.Errorf("paper-sweep: %s order, %d dims was never evaluated", orderings[oi], m)
		}
		again := eval.Sweep(w.ds, w.pca, w.orders[oi], orderings[oi].String(), eval.SweepConfig{Dims: []int{m}}).Points[0].Accuracy
		if again != got {
			return fmt.Errorf("paper-sweep: %s order, %d dims: accuracy %v in the timed phase, %v evaluated again", orderings[oi], m, got, again)
		}
		want := looAccuracy(projectStudentized(x, n, d, v, w.orders[oi][:m], true), n, m, w.ds.Labels, eval.PaperK)
		if err := checkAccuracy(got, want, n, eval.PaperK); err != nil {
			return fmt.Errorf("paper-sweep: %s order, %d dims: %w", orderings[oi], m, err)
		}
	}

	var opt [2]eval.CurvePoint
	for oi, o := range orderings {
		order := w.npca.Order(o)
		opt[oi] = eval.Sweep(w.noisy, w.npca, order, o.String(), eval.SweepConfig{Dims: noisyBGrid}).Optimal()
		nn, nd := w.noisy.X.Dims()
		want := looAccuracy(projectStudentized(flat(w.noisy.X), nn, nd, flat(w.npca.Components), order[:opt[oi].Dims], false),
			nn, opt[oi].Dims, w.noisy.Labels, eval.PaperK)
		if err := checkAccuracy(opt[oi].Accuracy, want, nn, eval.PaperK); err != nil {
			return fmt.Errorf("paper-sweep: noisy B %s optimum at %d dims: %w", o, opt[oi].Dims, err)
		}
	}
	if opt[1].Accuracy <= opt[0].Accuracy {
		return fmt.Errorf("paper-sweep: noisy B coherence optimum %.4f@%d does not beat eigenvalue optimum %.4f@%d",
			opt[1].Accuracy, opt[1].Dims, opt[0].Accuracy, opt[0].Dims)
	}
	logf("paper-sweep: noisy B optimum coherence %.4f@%d vs eigenvalue %.4f@%d",
		opt[1].Accuracy, opt[1].Dims, opt[0].Accuracy, opt[0].Dims)
	return nil
}

func (w *paperSweep) layers(tr *tracer, l layers) error {
	return paperLayers(tr, w.ds, l)
}

// tail interpolates halfway between the two slowest of a round's 18
// points: the full-dims point in its two orders, which do the same work.
func (w *paperSweep) tail() float64 { return 16.5 / 17 }

// windows is 1: a phase is one round of 18 points.
func (w *paperSweep) windows() int { return 1 }

func (w *paperSweep) close() {}

// paperLayers times each layer of the paper's program on a musk-like set:
// covariance, eigendecomposition, coherence, the whole fit, the rotation,
// one feature-stripping accuracy at 12 dims and its single k-NN queries.
func paperLayers(tr *tracer, ds *dataset.Dataset, l layers) error {
	work, _, _ := stats.Standardize(ds.X, 1e-12)
	var cov *linalg.Dense
	l.set("stats.covariance_ms", "ms", medianOf(3, func() { tr.do("stats.CovarianceMatrix", func() { cov = stats.CovarianceMatrix(work) }) }))
	var ed *linalg.EigenDecomposition
	var err error
	l.set("linalg.eigsym_ms", "ms", medianOf(3, func() { tr.do("linalg.EigSym", func() { ed, err = linalg.EigSym(cov) }) }))
	if err != nil {
		return err
	}
	_, vecs := ed.Descending()
	l.set("core.coherence_ms", "ms", medianOf(3, func() { tr.do("core.AnalyzeBasis", func() { core.AnalyzeBasis(work, vecs, false) }) }))
	var p *reduction.PCA
	l.set("reduction.fit_ms", "ms", medianOf(3, func() {
		tr.do("reduction.Fit", func() {
			p, err = reduction.Fit(ds.X, reduction.Options{Scaling: reduction.ScalingStudentize, ComputeCoherence: true})
		})
	}))
	if err != nil {
		return err
	}
	order := p.Order(reduction.ByCoherence)
	var rot *linalg.Dense
	l.set("reduction.transform_ms", "ms", medianOf(3, func() { tr.do("reduction.Transform", func() { rot = p.Transform(ds.X, order) }) }))
	cols := make([]int, 12)
	for i := range cols {
		cols[i] = i
	}
	sub := rot.SliceCols(cols)
	l.set("eval.accuracy_ms", "ms", medianOf(3, func() {
		tr.do("eval.PredictionAccuracy", func() { eval.PredictionAccuracy(sub, ds.Labels, eval.PaperK, knn.Euclidean{}) })
	}))
	us := make([]float64, 256)
	for i := range us {
		t := time.Now()
		knn.Search(sub, sub.RawRow(i), eval.PaperK, knn.Euclidean{}, i)
		end := time.Now()
		tr.record("knn.Search", 0, t, end)
		us[i] = float64(end.Sub(t)) / float64(time.Microsecond)
	}
	l.set("knn.search_us", "us", median(us))
	return nil
}

// flat copies a matrix into a row-major slice for the oracles.
func flat(m *linalg.Dense) []float64 {
	r, c := m.Dims()
	out := make([]float64, 0, r*c)
	for i := 0; i < r; i++ {
		out = append(out, m.RawRow(i)...)
	}
	return out
}
