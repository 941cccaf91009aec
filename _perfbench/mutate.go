package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/index/lsh"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
)

// Mutate-mix shape: per client and round, one insert, the read that must
// see it, sixteen held-out reads and one delete placed at random among
// them — 90% exact reads, 10% writes. CompactAt is low enough that
// pending inserts and tombstones trigger a background compaction every
// few hundred milliseconds.
const (
	mutQueries   = 256
	mutK         = 10
	mutClients   = 2
	mutRound     = 20
	mutCompactAt = 256
	mutSampled   = 16
	mutWarm      = 2 * time.Second
)

// mutateMix runs a dense engine over the cache-resident musk-like set
// with reads beside inserts and deletes.
type mutateMix struct {
	seed    int64
	ds      *dataset.Dataset
	queries [][]float64
	sd      []float64
	eng     *serve.Engine
	origin  time.Time

	dir   string
	logs  []*opLog // per client, every phase
	owned [][]int  // per client: live IDs it may delete
	rngs  []splitmix

	last        []opSample
	compactions uint64
	tomb, delta []float64 // engine state sampled by client 0 in traced phases
}

func (w *mutateMix) setup(tr *tracer) (float64, error) {
	var err error
	s := setupSeconds(3, 8, func() {
		tr.do("setup.mutate", func() {
			if w.eng != nil {
				w.eng.Close()
			}
			if w.ds, w.queries, err = musk(w.seed, mutQueries); err != nil {
				return
			}
			w.eng, err = serve.New(w.ds.X, serve.Config{CompactAt: mutCompactAt})
		})
	})
	if err != nil {
		return 0, err
	}
	n, d := w.ds.X.Dims()
	w.sd = make([]float64, d)
	for j := range w.sd {
		var s, s2 float64
		for i := 0; i < n; i++ {
			v := w.ds.X.At(i, j)
			s += v
			s2 += v * v
		}
		m := s / float64(n)
		w.sd[j] = math.Sqrt(s2/float64(n) - m*m)
	}
	w.logs = make([]*opLog, mutClients)
	w.owned = make([][]int, mutClients)
	w.rngs = make([]splitmix, mutClients)
	for c := 0; c < mutClients; c++ {
		for id := c; id < n; id += mutClients {
			w.owned[c] = append(w.owned[c], id)
		}
		w.rngs[c] = rowSeed(w.seed, -2-c)
		if w.logs[c], err = newOpLog(w.dir); err != nil {
			return 0, err
		}
	}
	w.origin = time.Now()
	return s, nil
}

func (w *mutateMix) base(id int) []float64 {
	if id < 0 || id >= w.ds.X.Rows() {
		return nil
	}
	return w.ds.X.RawRow(id)
}

// warm runs the mix untimed long enough for the first compactions to
// land; its operations are logged and checked like the timed ones.
func (w *mutateMix) warm() { w.run(nil, mutWarm) }

func (w *mutateMix) run(tr *tracer, d time.Duration) ([]opSample, *phase, int) {
	c0 := w.eng.Stats().Compactions
	p := beginPhase()
	deadline := p.start.Add(d)
	per := make([][]opSample, mutClients)
	fails := make([]int, mutClients)
	var wg sync.WaitGroup
	for c := 0; c < mutClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				fails[c] += w.round(tr, c, &per[c])
				if !deadline.After(time.Now()) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.end()
	var ops []opSample
	failed := 0
	for c := range per {
		ops = append(ops, per[c]...)
		failed += fails[c]
	}
	w.last = ops
	w.compactions = w.eng.Stats().Compactions - c0
	// Fold what is pending once the clock has stopped, so the memory read
	// next never catches a compaction half built and every phase starts
	// from a folded snapshot.
	if _, err := w.eng.Compact(context.Background()); err != nil {
		logf("mutate-mix: compaction after the phase: %v", err)
	}
	return ops, p, failed
}

// round issues one client's round and returns how many operations failed.
func (w *mutateMix) round(tr *tracer, c int, ops *[]opSample) int {
	ctx := context.Background()
	r := &w.rngs[c]
	failed := 0
	del := 2 + r.intn(mutRound-2)
	insertedID := -1
	var insertedVec []float64
	for slot := 0; slot < mutRound; slot++ {
		op := mutOp{id: -1, q: -1}
		var res serve.Result
		var err error
		var name string
		t := time.Now()
		switch {
		case slot == 0:
			op.kind, name = opInsert, "serve.Insert"
			src := w.ds.X.RawRow(r.intn(w.ds.X.Rows()))
			op.vec = make([]float64, len(src))
			for j := range src {
				op.vec[j] = src[j] + 0.1*w.sd[j]*r.norm()
			}
			t = time.Now()
			op.id, err = w.eng.Insert(ctx, op.vec)
			if err == nil {
				insertedID, insertedVec = op.id, op.vec
			}
		case slot == del:
			op.kind, name = opDelete, "serve.Delete"
			own := w.owned[c]
			i := r.intn(len(own))
			op.id = own[i]
			t = time.Now()
			err = w.eng.Delete(ctx, op.id)
			if err == nil {
				own[i] = own[len(own)-1]
				w.owned[c] = own[:len(own)-1]
			}
		default:
			op.kind, name = opRead, "serve.SearchMode"
			query := insertedVec
			if slot == 1 && insertedID >= 0 {
				op.id = insertedID
			} else {
				op.q = r.intn(len(w.queries))
				query = w.queries[op.q]
			}
			t = time.Now()
			res, err = w.eng.SearchMode(ctx, query, mutK, serve.ModeExact)
		}
		end := time.Now()
		tr.record(name, 0, t, end)
		if err != nil {
			failed++
			continue
		}
		if op.kind == opInsert {
			w.owned[c] = append(w.owned[c], op.id)
		}
		op.issue, op.ack = int64(t.Sub(w.origin)), int64(end.Sub(w.origin))
		w.logs[c].add(&op, res.Neighbors)
		*ops = append(*ops, opSample{kind: op.kind, lat: end.Sub(t), done: end, wait: res.Wait, total: res.Total})
	}
	if tr != nil && c == 0 {
		s := w.eng.Stats()
		w.tomb = append(w.tomb, float64(s.Tombstones))
		w.delta = append(w.delta, float64(s.DeltaRows))
	}
	return failed
}

// check replays the logs against the invariants, then quiesces the
// engine and holds it to a brute force over the logged live set.
func (w *mutateMix) check() error {
	logs, err := w.readLogs()
	if err != nil {
		return err
	}
	rep := checkMutations(logs, mutK, w.base, w.queries)
	logf("mutate-mix: %d reads, %d inserts, %d deletes checked; %d bad answers, %d deleted-ID hits, %d stale, %d duplicate IDs",
		rep.Reads, rep.Inserts, rep.Deletes, rep.BadAnswers, rep.DeletedHits, rep.Stale, rep.DupIDs)
	if rep.violations() > 0 {
		return fmt.Errorf("mutate-mix: %s", rep.First)
	}
	ctx := context.Background()
	if _, err := w.eng.Compact(ctx); err != nil {
		return err
	}
	ids, rows := liveSet(logs, w.ds.X.Rows(), w.base)
	if w.eng.Len() != len(ids) {
		return fmt.Errorf("mutate-mix: quiesced engine serves %d rows, the log leaves %d", w.eng.Len(), len(ids))
	}
	qs := w.queries[:mutSampled]
	want := bruteTopK(len(ids), w.ds.Dims(), func(i int, dst []float64) { copy(dst, rows[i]) },
		func(i int) int { return ids[i] }, qs, mutK)
	live := make(map[int][]float64, len(ids))
	for i, id := range ids {
		live[id] = rows[i]
	}
	for q, qv := range qs {
		res, err := w.eng.SearchMode(ctx, qv, mutK, serve.ModeExact)
		if err != nil {
			return err
		}
		got := toNB(res.Neighbors)
		err = checkAnswer(got, mutK, func(id int) (float64, error) {
			v, ok := live[id]
			if !ok {
				return 0, fmt.Errorf("id %d is not live", id)
			}
			return dist(v, qv), nil
		})
		if err == nil {
			err = checkExact(got, want[q])
		}
		if err != nil {
			return fmt.Errorf("mutate-mix: quiesced query %d: %w", q, err)
		}
	}
	return nil
}

func (w *mutateMix) layers(tr *tracer, l layers) error {
	serveReadLayers(w.last, l)
	var ins, del []float64
	for _, o := range w.last {
		switch o.kind {
		case opInsert:
			ins = append(ins, ms(o.lat))
		case opDelete:
			del = append(del, ms(o.lat))
		}
	}
	l.set("serve.insert_ms", "ms", median(ins))
	l.set("serve.delete_ms", "ms", median(del))
	l.set("serve.tombstones_mean", "count", mean(w.tomb))
	l.set("serve.delta_rows_mean", "count", mean(w.delta))
	l.set("serve.compactions", "count", float64(w.compactions))

	// Compaction replayed synchronously at the size that triggers it.
	ctx := context.Background()
	n := w.ds.X.Rows()
	compact := make([]float64, 3)
	for i := range compact {
		var err error
		if compact[i], err = compactOnce(tr, w.ds.X, w.queries); err != nil {
			return err
		}
	}
	l.set("serve.compact_ms", "ms", median(compact))
	shard := w.ds.X.RowSlice(0, n/w.eng.Shards())
	l.set("lsh.build_ms", "ms", medianOf(3, func() { tr.do("lsh.Build", func() { lsh.Build(shard, lsh.Config{Seed: w.seed}) }) }))

	// Fan-out on the quiesced engine: after a compaction the snapshot
	// holds the live rows in ascending ID order.
	if _, err := w.eng.Compact(ctx); err != nil {
		return err
	}
	logs, err := w.readLogs()
	if err != nil {
		return err
	}
	ids, rows := liveSet(logs, n, w.base)
	d := w.ds.Dims()
	flatRows := make([]float64, 0, len(ids)*d)
	for _, r := range rows {
		flatRows = append(flatRows, r...)
	}
	m := linalg.NewDenseData(len(ids), d, flatRows)
	views := map[[2]int]*denseReplay{}
	for _, r := range shardRanges(len(ids), w.eng.Shards()) {
		v := m.RowSlice(r[0], r[1])
		views[r] = &denseReplay{lo: r[0], data: v, norms: linalg.RowNormsSq(v)}
	}
	l.set("serve.fanout_ms", "ms", fanout(tr, w.eng, w.queries[:mutSampled], mutK, serve.ModeExact, func(q []float64, lo, hi int) {
		views[[2]int{lo, hi}].search(q, mutK)
	}))
	return nil
}

// compactOnce builds a fresh engine with automatic compaction off,
// leaves half the trigger size in inserts and half in deletes pending,
// and times one synchronous Compact.
func compactOnce(tr *tracer, data *linalg.Dense, queries [][]float64) (float64, error) {
	ctx := context.Background()
	e, err := serve.New(data, serve.Config{CompactAt: -1})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	n := data.Rows()
	for i := 0; i < mutCompactAt/2; i++ {
		if _, err := e.Insert(ctx, queries[i%len(queries)]); err != nil {
			return 0, err
		}
		if err := e.Delete(ctx, i*(n/mutCompactAt)); err != nil {
			return 0, err
		}
	}
	return tr.do("serve.Compact", func() { _, err = e.Compact(ctx) }), err
}

// denseReplay repeats a dense shard's exact scan through public calls:
// the cached-norm distance identity, the collector, the exact rescore and
// the canonical sort.
type denseReplay struct {
	lo    int
	data  *linalg.Dense
	norms []float64
}

func (s *denseReplay) search(q []float64, k int) []knn.Neighbor {
	n := s.data.Rows()
	qn := linalg.Dot(q, q)
	c := knn.NewCollector(k)
	for i := 0; i < n; i++ {
		d2 := s.norms[i] + qn - 2*linalg.Dot(s.data.RawRow(i), q)
		if d2 < 0 {
			d2 = 0
		}
		c.Offer(s.lo+i, d2)
	}
	res := c.Results()
	e := knn.Euclidean{}
	for i := range res {
		res[i].Dist = e.Distance(s.data.RawRow(res[i].Index-s.lo), q)
	}
	knn.SortNeighbors(res)
	return res
}

func (w *mutateMix) tail() float64 { return 0.90 }

func (w *mutateMix) windows() int { return opWindows }

func (w *mutateMix) readLogs() ([][]mutOp, error) {
	logs := make([][]mutOp, len(w.logs))
	for c, l := range w.logs {
		var err error
		if logs[c], err = l.read(); err != nil {
			return nil, err
		}
	}
	return logs, nil
}

func (w *mutateMix) close() {
	if w.eng != nil {
		w.eng.Close()
	}
	for _, l := range w.logs {
		if l != nil {
			l.close()
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
