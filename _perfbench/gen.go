package main

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
)

// splitmix is the splitmix64 generator: one add and two multiplies per
// draw, so inputs of millions of rows cost little next to what they feed.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// norm draws an approximately standard normal value: the sum of four
// 16-bit uniforms from one draw, centered and scaled to unit variance.
func (r *splitmix) norm() float64 {
	x := r.next()
	s := float64(x&0xffff) + float64(x>>16&0xffff) + float64(x>>32&0xffff) + float64(x>>48)
	return (s/65536 - 2) * math.Sqrt(3)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// rowSeed derives the generator state of row i, so any row can be
// regenerated on its own and rows can be produced in any order.
func rowSeed(seed int64, i int) splitmix {
	r := splitmix{uint64(seed)*0x2545F4914F6CDD1D ^ uint64(i)*0xD1B54A32D192ED03}
	r.next()
	return r
}

// musk generates the musk-like set at Musk clean2 scale (6598×166) plus
// extra held-out rows from the same distribution, through the program's
// own latent-factor generator.
func musk(seed int64, extra int) (*dataset.Dataset, [][]float64, error) {
	const n = 6598
	cfg := synthetic.MuskLikeConfig(seed)
	cfg.N = n + extra
	all, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	held := make([][]float64, extra)
	for i := range held {
		held[i] = append([]float64(nil), all.X.RawRow(n+i)...)
	}
	ds, err := dataset.New(all.Name, all.X.RowSlice(0, n), all.Labels[:n])
	if err != nil {
		return nil, nil, fmt.Errorf("musk-like set: %w", err)
	}
	return ds, held, nil
}

// scanRows describes the store-scan data: nBase rows drawn from the
// program's musk-like RowStream, each expanded into copies with Gaussian
// jitter of half the per-dimension standard deviation. The stream costs
// microseconds per row; the expansion lets the set outgrow the last-level
// cache while keeping set-up in seconds.
type scanRows struct {
	seed  int64
	n, d  int
	base  []float64 // nBase×d, row-major
	nBase int
	sd    []float64 // jitter standard deviation per dimension
}

// newScanRows draws nBase base rows and nq held-out queries from one
// musk-like stream of dimensionality d.
func newScanRows(seed int64, n, d, nBase, nq int) (*scanRows, [][]float64, error) {
	cfg := synthetic.MuskLikeConfig(seed)
	cfg.N = nBase + nq
	cfg.Dims = d
	rs, err := synthetic.NewRowStream(cfg)
	if err != nil {
		return nil, nil, err
	}
	g := &scanRows{seed: seed, n: n, d: d, base: make([]float64, nBase*d), nBase: nBase, sd: make([]float64, d)}
	for i := 0; i < nBase; i++ {
		row, _ := rs.Next()
		copy(g.base[i*d:], row)
	}
	queries := make([][]float64, nq)
	for i := range queries {
		row, _ := rs.Next()
		queries[i] = append([]float64(nil), row...)
	}
	for j := 0; j < d; j++ {
		var s, s2 float64
		for i := 0; i < nBase; i++ {
			v := g.base[i*d+j]
			s += v
			s2 += v * v
		}
		m := s / float64(nBase)
		g.sd[j] = 0.5 * math.Sqrt(s2/float64(nBase)-m*m)
	}
	return g, queries, nil
}

// row writes row i into dst.
func (g *scanRows) row(i int, dst []float64) {
	r := rowSeed(g.seed, i)
	b := g.base[(i%g.nBase)*g.d : (i%g.nBase+1)*g.d]
	for j := range dst {
		dst[j] = b[j] + g.sd[j]*r.norm()
	}
}
