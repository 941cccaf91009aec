package main

// Independent oracles. Everything in this file is plain Go float64 and
// calls no linalg, knn, store or serve code, so a fault in those layers
// cannot hide in the reference it is checked against.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// nb is one neighbor: a stable ID and its Euclidean distance.
type nb struct {
	ID   int
	Dist float64
}

func less(a, b nb) bool { return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) }

// dist is the Euclidean distance.
func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// topK is a bounded max-heap of the k best neighbors under (dist, id).
type topK struct {
	k int
	h []nb
}

func (t *topK) offer(c nb) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(t.h[p], t.h[i]) {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return
	}
	if !less(c, t.h[0]) {
		return
	}
	t.h[0] = c
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(t.h) && less(t.h[m], t.h[l]) {
			m = l
		}
		if r < len(t.h) && less(t.h[m], t.h[r]) {
			m = r
		}
		if m == i {
			break
		}
		t.h[m], t.h[i] = t.h[i], t.h[m]
		i = m
	}
}

func (t *topK) sorted() []nb {
	out := append([]nb(nil), t.h...)
	sort.Slice(out, func(a, b int) bool { return less(out[a], out[b]) })
	return out
}

// bruteTopK returns the exact k nearest of every query among n rows. row
// writes row i (whose stable ID is id(i)) into dst; it must be safe to call
// from two goroutines at once. The rows are visited once, in two halves on
// two goroutines, so regenerated rows cost one pass for all queries.
func bruteTopK(n, d int, row func(i int, dst []float64), id func(i int) int, queries [][]float64, k int) [][]nb {
	const parts = 2
	heaps := make([][]topK, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		heaps[p] = make([]topK, len(queries))
		for q := range heaps[p] {
			heaps[p][q].k = k
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]float64, d)
			for i := p * n / parts; i < (p+1)*n/parts; i++ {
				row(i, buf)
				for q, qv := range queries {
					heaps[p][q].offer(nb{id(i), dist(buf, qv)})
				}
			}
		}(p)
	}
	wg.Wait()
	out := make([][]nb, len(queries))
	for q := range queries {
		all := topK{k: k}
		for p := 0; p < parts; p++ {
			for _, c := range heaps[p][q].h {
				all.offer(c)
			}
		}
		out[q] = all.sorted()
	}
	return out
}

// relTol is the distance agreement demanded between a reported distance
// and the oracle's. The program and the oracle may sum in different
// orders; any wrong row is off by far more.
const relTol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= relTol*math.Max(1, math.Abs(b)) }

// checkAnswer validates one reported top-k list on its own terms: k
// entries (fewer only when live < k), distinct IDs, canonical (dist, id)
// order, and every distance equal to the true distance of its ID as
// trueDist computes it (an error for an unknown ID).
func checkAnswer(got []nb, k int, trueDist func(id int) (float64, error)) error {
	if len(got) != k {
		return fmt.Errorf("%d neighbors, want %d", len(got), k)
	}
	seen := make(map[int]bool, len(got))
	for j, g := range got {
		if seen[g.ID] {
			return fmt.Errorf("id %d reported twice", g.ID)
		}
		seen[g.ID] = true
		if j > 0 && less(g, got[j-1]) {
			return fmt.Errorf("rank %d (id %d, %v) out of order", j, g.ID, g.Dist)
		}
		want, err := trueDist(g.ID)
		if err != nil {
			return fmt.Errorf("rank %d: %w", j, err)
		}
		if !near(g.Dist, want) {
			return fmt.Errorf("rank %d id %d: reported distance %v, true %v", j, g.ID, g.Dist, want)
		}
	}
	return nil
}

// checkExact holds a valid answer (see checkAnswer) to the oracle's exact
// top-k: rank by rank the distances must agree, so IDs may differ only
// between rows at tied distances.
func checkExact(got, want []nb) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, oracle has %d", len(got), len(want))
	}
	for j := range got {
		if !near(got[j].Dist, want[j].Dist) {
			return fmt.Errorf("rank %d: id %d at %v, oracle id %d at %v", j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
		}
	}
	return nil
}

// recall is |got ∩ want| / |want|.
func recall(got, want []nb) float64 {
	in := make(map[int]bool, len(want))
	for _, w := range want {
		in[w.ID] = true
	}
	hit := 0
	for _, g := range got {
		if in[g.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// projectStudentized standardizes the n×d row-major x with its own column
// means and standard deviations and projects it onto the given columns of
// the d×d row-major component matrix v. The standard deviation's
// normalization (n or n−1) scales every projected axis alike, so it cannot
// change a neighbor ranking.
func projectStudentized(x []float64, n, d int, v []float64, cols []int, studentize bool) []float64 {
	mean := make([]float64, d)
	sd := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			mean[j] += x[i*d+j]
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			t := x[i*d+j] - mean[j]
			sd[j] += t * t
		}
	}
	for j := range sd {
		sd[j] = math.Sqrt(sd[j] / float64(n))
		if !studentize || sd[j] <= 1e-6 {
			sd[j] = 1
		}
	}
	m := len(cols)
	out := make([]float64, n*m)
	z := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			z[j] = (x[i*d+j] - mean[j]) / sd[j]
		}
		for c, col := range cols {
			s := 0.0
			for j := 0; j < d; j++ {
				s += z[j] * v[j*d+col]
			}
			out[i*m+c] = s
		}
	}
	return out
}

// looAccuracy is the paper's feature-stripping measure: every point finds
// its k nearest other points, and the accuracy is the share of all found
// neighbors whose label matches the query's.
func looAccuracy(y []float64, n, m int, labels []int, k int) float64 {
	var mu sync.Mutex
	matches := 0
	var wg sync.WaitGroup
	const parts = 2
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			local := 0
			for i := p * n / parts; i < (p+1)*n/parts; i++ {
				t := topK{k: k, h: make([]nb, 0, k)}
				qi := y[i*m : (i+1)*m]
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					s := 0.0
					for c, qv := range qi {
						dd := y[j*m+c] - qv
						s += dd * dd
					}
					t.offer(nb{j, s})
				}
				for _, c := range t.h {
					if labels[c.ID] == labels[i] {
						local++
					}
				}
			}
			mu.Lock()
			matches += local
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return float64(matches) / float64(k*n)
}

// accuracyTol bounds the gap between the program's and the oracle's
// accuracy: a handful of neighbor labels out of k·n, which is what a
// different summation order can flip at exactly tied distances.
func accuracyTol(n, k int) float64 { return 5 / float64(k*n) }

func checkAccuracy(got, want float64, n, k int) error {
	if math.Abs(got-want) > accuracyTol(n, k) {
		return fmt.Errorf("accuracy %.6f, oracle %.6f", got, want)
	}
	return nil
}

// eigenResidual returns max over the given columns of ‖C v − ρ v‖ / ρ₀
// and of |‖v‖ − 1|, with C the covariance of the studentized (or only
// centered) n×d data, ρ = vᵀCv the Rayleigh quotient of column v and ρ₀
// the largest of them — a check that the fitted basis is an orthonormal
// eigenbasis of the data it came from. The Rayleigh quotient makes the
// check blind to whether variances were normalized by n or n−1.
func eigenResidual(x []float64, n, d int, v []float64, cols []int, studentize bool) float64 {
	id := make([]int, d)
	for j := range id {
		id[j] = j
	}
	// Projecting onto the identity basis standardizes (or centers) x.
	z := projectStudentized(x, n, d, identity(d), id, studentize)
	c := make([]float64, d*d)
	for i := 0; i < n; i++ {
		r := z[i*d : (i+1)*d]
		for a := 0; a < d; a++ {
			ra := r[a]
			for b := a; b < d; b++ {
				c[a*d+b] += ra * r[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			c[a*d+b] /= float64(n)
			c[b*d+a] = c[a*d+b]
		}
	}
	cv := make([]float64, d)
	rho0, worst := 0.0, 0.0
	res := make([]float64, len(cols))
	for i, col := range cols {
		rho, norm := 0.0, 0.0
		for a := 0; a < d; a++ {
			s := 0.0
			for b := 0; b < d; b++ {
				s += c[a*d+b] * v[b*d+col]
			}
			cv[a] = s
			rho += s * v[a*d+col]
			norm += v[a*d+col] * v[a*d+col]
		}
		r := 0.0
		for a := 0; a < d; a++ {
			t := cv[a] - rho*v[a*d+col]
			r += t * t
		}
		res[i] = math.Sqrt(r)
		rho0 = math.Max(rho0, rho)
		worst = math.Max(worst, math.Abs(math.Sqrt(norm)-1))
	}
	for _, r := range res {
		worst = math.Max(worst, r/rho0)
	}
	return worst
}

func identity(d int) []float64 {
	v := make([]float64, d*d)
	for j := 0; j < d; j++ {
		v[j*d+j] = 1
	}
	return v
}

// Operation kinds of the mutate-mix log.
const (
	opRead int8 = iota
	opInsert
	opDelete
)

// mutOp is one acknowledged operation in a client's log. Times are
// nanoseconds since the timed phase began: issue when the client sent the
// request, ack when the reply arrived.
type mutOp struct {
	kind       int8
	issue, ack int64
	// id is the inserted or deleted ID; for a read-your-writes read, the
	// just-inserted ID it must find; -1 otherwise.
	id int
	// q indexes the held-out queries; -1 for a read-your-writes read,
	// whose query is the inserted vector itself.
	q   int
	vec []float64 // inserted vector
	res []nb      // read answer
}

// mutReport counts the invariant violations found in the mutate-mix logs.
type mutReport struct {
	Reads, Inserts, Deletes int
	// BadAnswers counts reads whose answer is malformed or whose reported
	// distances are not the true distances of the reported IDs (unknown
	// IDs included); DeletedHits counts reads returning an ID whose delete
	// was acknowledged before the read was issued; Stale counts
	// read-your-writes reads that missed the insert just acknowledged;
	// DupIDs counts IDs that Insert handed out twice or that two deletes
	// both acknowledged.
	BadAnswers, DeletedHits, Stale, DupIDs int
	First                                  string
}

func (r mutReport) violations() int { return r.BadAnswers + r.DeletedHits + r.Stale + r.DupIDs }

// checkMutations replays the clients' logs. base returns the vector of a
// base ID or nil; queries are the held-out read queries.
func checkMutations(logs [][]mutOp, k int, base func(id int) []float64, queries [][]float64) mutReport {
	var r mutReport
	note := func(format string, args ...any) {
		if r.First == "" {
			r.First = fmt.Sprintf(format, args...)
		}
	}
	inserted := map[int][]float64{}
	deleteAck := map[int]int64{}
	for _, log := range logs {
		for _, op := range log {
			switch op.kind {
			case opInsert:
				r.Inserts++
				if _, dup := inserted[op.id]; dup || base(op.id) != nil {
					r.DupIDs++
					note("insert id %d handed out twice", op.id)
				}
				inserted[op.id] = op.vec
			case opDelete:
				r.Deletes++
				if _, dup := deleteAck[op.id]; dup {
					r.DupIDs++
					note("id %d deleted twice", op.id)
				}
				deleteAck[op.id] = op.ack
			}
		}
	}
	vec := func(id int) []float64 {
		if v := base(id); v != nil {
			return v
		}
		return inserted[id]
	}
	for _, log := range logs {
		for _, op := range log {
			if op.kind != opRead {
				continue
			}
			r.Reads++
			var q []float64
			if op.q >= 0 {
				q = queries[op.q]
			} else {
				q = inserted[op.id]
			}
			err := checkAnswer(op.res, k, func(id int) (float64, error) {
				v := vec(id)
				if v == nil {
					return 0, fmt.Errorf("unknown id %d", id)
				}
				return dist(v, q), nil
			})
			if err != nil {
				r.BadAnswers++
				note("read issued at %d ns: %v", op.issue, err)
			}
			for _, g := range op.res {
				if ack, ok := deleteAck[g.ID]; ok && ack < op.issue {
					r.DeletedHits++
					note("read issued at %d ns returned id %d, deleted at %d ns", op.issue, g.ID, ack)
				}
			}
			if op.q < 0 && (len(op.res) == 0 || op.res[0].ID != op.id || op.res[0].Dist != 0) {
				r.Stale++
				note("read-your-writes read issued at %d ns missed insert %d", op.issue, op.id)
			}
		}
	}
	return r
}

// liveSet rebuilds the surviving rows from the logs: base IDs [0, nBase)
// and every inserted ID, minus every deleted one, in ascending ID order.
func liveSet(logs [][]mutOp, nBase int, base func(id int) []float64) (ids []int, rows [][]float64) {
	dead := map[int]bool{}
	ins := map[int][]float64{}
	for _, log := range logs {
		for _, op := range log {
			switch op.kind {
			case opInsert:
				ins[op.id] = op.vec
			case opDelete:
				dead[op.id] = true
			}
		}
	}
	for id := 0; id < nBase; id++ {
		if !dead[id] {
			ids = append(ids, id)
		}
	}
	var extra []int
	for id := range ins {
		if !dead[id] {
			extra = append(extra, id)
		}
	}
	sort.Ints(extra)
	ids = append(ids, extra...)
	rows = make([][]float64, len(ids))
	for i, id := range ids {
		if id < nBase {
			rows[i] = base(id)
		} else {
			rows[i] = ins[id]
		}
	}
	return ids, rows
}
