package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/store"
)

// Store-scan shape. 7M rows × 16 dims at int8 stream 32 bytes per row per
// query (16 code bytes plus the 16-byte norm/code-sum record), 214 MiB in
// all: twice the 105 MiB shared L3, so no query finds the previous one's
// planes in cache. At 16 dims the store has no early-abandon prefix, so
// every query streams every row. 16 dims fill the 16-byte code row with
// no padding and keep the float64 exact region, which the file must hold,
// at 128 bytes a row: the file is 1.06 GB.
const (
	scanN        = 7_000_000
	scanD        = 16
	scanBase     = 65536
	scanQueries  = 256
	scanK        = 10
	scanRescore  = 32 * scanK // per-shard rescore budget: the engine's own default (Config.Rescore 0 selects 32·k)
	scanSetups   = 3
	scanClients  = 2
	scanRound    = 8 // queries per client per round
	scanSampled  = 8 // queries checked against the brute-force oracle
	recallFloor  = 0.95
	rescoreRange = 65536 // rows of the rescore-cost replays
)

// storeScan serves held-out queries from a store-backed engine, pinned to
// the approximate path with an explicit rescore budget.
type storeScan struct {
	seed    int64
	dir     string
	gen     *scanRows
	queries [][]float64
	path    string
	st      *store.Store
	eng     *serve.Engine
	buildS  float64
	openMS  float64

	answers  [][]answer // per client, every answer of every phase
	rescored float64    // candidates rescored per query in the last phase
	last     []opSample // ops of the last phase
}

// answer is one served query: the query's index and the engine's result.
type answer struct {
	q   int
	res []knn.Neighbor
}

func (w *storeScan) setup(tr *tracer) (float64, error) {
	var err error
	tr.do("setup.generate", func() { w.gen, w.queries, err = newScanRows(w.seed, scanN, scanD, scanBase, scanQueries) })
	if err != nil {
		return 0, err
	}
	w.path = filepath.Join(w.dir, "store-scan.qvs")
	// The store file is large; a failed build is easier to read with the
	// space that was free beside it.
	var fs syscall.Statfs_t
	if syscall.Statfs(w.dir, &fs) == nil {
		logf("store-scan: %d MiB free beside the %s store file", fs.Bavail*uint64(fs.Bsize)>>20, w.path)
	}
	// The whole set-up — build, Open, NewFromStore and faulting the exact
	// region in — runs scanSetups times and each part reports its median,
	// so one slow write-back of the 1.06 GB file moves none of them.
	builds := make([]float64, scanSetups)
	open := make([]float64, scanSetups)
	reps := make([]float64, scanSetups)
	for i := range reps {
		w.close() // Create truncates the file a previous round mapped
		t := time.Now()
		builds[i] = tr.do("store.build", func() { err = buildStore(w.path, w.gen) }) / 1000
		if err != nil {
			return 0, err
		}
		open[i] = tr.do("store.Open", func() { w.st, err = store.Open(w.path) })
		if err != nil {
			return 0, err
		}
		tr.do("serve.NewFromStore", func() { w.eng, err = serve.NewFromStore(w.st, serve.Config{Rescore: scanRescore}) })
		if err != nil {
			w.st.Close()
			w.st = nil
			return 0, err
		}
		tr.do("setup.warm-exact", func() { touchExact(w.st) })
		reps[i] = time.Since(t).Seconds()
	}
	w.buildS = median(builds)
	w.openMS = median(open)
	w.answers = make([][]answer, scanClients)
	return median(reps), nil
}

// buildStore streams the rows twice through the program's writer path:
// a scale pass, then the encode pass, in variance order.
func buildStore(path string, g *scanRows) error {
	acc := store.NewScaleAccumulator(g.d)
	row := make([]float64, g.d)
	for i := 0; i < g.n; i++ {
		g.row(i, row)
		acc.Add(row)
	}
	cfg := store.BuildConfig{Precision: store.Int8, Perm: acc.VarianceOrder()}
	cfg.Mins, cfg.Steps = acc.Scales(store.Int8)
	sw, err := store.Create(path, g.n, g.d, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < g.n; i++ {
		g.row(i, row)
		if err := sw.Append(row); err != nil {
			sw.Close()
			return err
		}
	}
	return sw.Close()
}

// touchExact reads one value per 4 KiB page of the exact region, so the
// timed phase's rescores never fault.
func touchExact(st *store.Store) {
	m := st.ExactMatrix()
	step := 4096 / (8 * st.Dims())
	if step < 1 {
		step = 1
	}
	s := 0.0
	for i := 0; i < st.Len(); i += step {
		s += m.RawRow(i)[0]
	}
	sink += uint64(s)
}

// warm runs one untimed round per client, which also lets the pools
// and the scheduler settle.
func (w *storeScan) warm() { w.run(nil, 0) }

func (w *storeScan) run(tr *tracer, d time.Duration) ([]opSample, *phase, int) {
	r0 := w.st.Stats().Rescored
	p := beginPhase()
	deadline := p.start.Add(d)
	per := make([][]opSample, scanClients)
	fails := make([]int, scanClients)
	var wg sync.WaitGroup
	for c := 0; c < scanClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; ; {
				for r := 0; r < scanRound; r, j = r+1, j+1 {
					q := (c + scanClients*j) % scanQueries
					t := time.Now()
					res, err := w.eng.SearchMode(ctx, w.queries[q], scanK, serve.ModeApprox)
					end := time.Now()
					tr.record("serve.SearchMode", 0, t, end)
					if err != nil {
						fails[c]++
						continue
					}
					per[c] = append(per[c], opSample{lat: end.Sub(t), done: end, wait: res.Wait, total: res.Total})
					w.answers[c] = append(w.answers[c], answer{q, res.Neighbors})
				}
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
	if len(ops) > 0 {
		w.rescored = float64(w.st.Stats().Rescored-r0) / float64(len(ops))
	}
	return ops, p, failed
}

// check holds every answer to the regenerated rows — each reported
// distance must be the true distance of its row — and the first answer to
// each sampled query to a brute force over all rows, whose recall@10 must
// reach the floor.
func (w *storeScan) check() error {
	row := make([]float64, scanD)
	first := map[int][]nb{}
	for _, answers := range w.answers {
		for _, a := range answers {
			got := toNB(a.res)
			err := checkAnswer(got, scanK, func(id int) (float64, error) {
				if id < 0 || id >= scanN {
					return 0, fmt.Errorf("id %d outside [0,%d)", id, scanN)
				}
				w.gen.row(id, row)
				return dist(row, w.queries[a.q]), nil
			})
			if err != nil {
				return fmt.Errorf("store-scan: query %d: %w", a.q, err)
			}
			if _, ok := first[a.q]; !ok && a.q < scanSampled {
				first[a.q] = got
			}
		}
	}
	qs := w.queries[:scanSampled]
	want := bruteTopK(scanN, scanD, w.gen.row, func(i int) int { return i }, qs, scanK)
	sum := 0.0
	for q := range qs {
		got, ok := first[q]
		if !ok {
			return fmt.Errorf("store-scan: sampled query %d was never answered", q)
		}
		sum += recall(got, want[q])
	}
	rec := sum / float64(len(qs))
	logf("store-scan: recall@%d %.4f over %d sampled queries (floor %.2f)", scanK, rec, len(qs), recallFloor)
	if rec < recallFloor {
		return fmt.Errorf("store-scan: recall@%d %.4f below floor %.2f", scanK, rec, recallFloor)
	}
	return nil
}

func (w *storeScan) layers(tr *tracer, l layers) error {
	l.set("store.build_s", "s", w.buildS)
	l.set("store.open_ms", "ms", w.openMS)
	l.set("store.rescored_per_query", "count", w.rescored)
	if err := storeLayers(tr, w.st, w.queries[:scanSampled], scanK, scanRescore, l); err != nil {
		return err
	}
	serveReadLayers(w.last, l)
	l.set("serve.fanout_ms", "ms", fanout(tr, w.eng, w.queries[:scanSampled], scanK, serve.ModeApprox, func(q []float64, lo, hi int) {
		w.st.SearchRange(q, lo, hi, scanK, scanRescore)
	}))
	return nil
}

func (w *storeScan) tail() float64 { return 0.90 }

func (w *storeScan) windows() int { return opWindows }

func (w *storeScan) close() {
	if w.eng != nil {
		w.eng.Close()
		w.st.Close()
		w.eng, w.st = nil, nil
	}
	if w.path != "" {
		os.Remove(w.path)
	}
}

// serveReadLayers derives the read-side serve figures from a phase's ops:
// queue wait, the hand-off between the engine's merge and the client, and
// the client-observed read latency.
func serveReadLayers(ops []opSample, l layers) {
	var wait, hand, lat []float64
	for _, o := range ops {
		if o.kind != opRead {
			continue
		}
		wait = append(wait, ms(o.wait))
		hand = append(hand, float64(o.lat-o.total)/float64(time.Microsecond))
		lat = append(lat, ms(o.lat))
	}
	l.set("serve.queue_wait_p50_ms", "ms", quantile(wait, 0.5))
	l.set("serve.queue_wait_p99_ms", "ms", quantile(wait, 0.99))
	l.set("serve.handoff_us", "us", median(hand))
	l.set("serve.read_ms", "ms", median(lat))
}

// fanout replays sampled queries one at a time: the engine's Total minus
// the slowest of the same query's per-shard searches, replayed directly,
// is what the fan-out, the merge and the admission path add.
func fanout(tr *tracer, e *serve.Engine, qs [][]float64, k int, mode serve.Mode, shard func(q []float64, lo, hi int)) float64 {
	ctx := context.Background()
	out := make([]float64, 0, len(qs))
	for _, q := range qs {
		t := time.Now()
		res, err := e.SearchMode(ctx, q, k, mode)
		probe := tr.record("serve.SearchMode.probe", 0, t, time.Now())
		if err != nil {
			continue
		}
		slowest := time.Duration(0)
		for _, r := range shardRanges(e.Len(), e.Shards()) {
			t := time.Now()
			shard(q, r[0], r[1])
			end := time.Now()
			tr.record("replay.shard", probe, t, end)
			if d := end.Sub(t); d > slowest {
				slowest = d
			}
		}
		out = append(out, ms(res.Total-slowest))
	}
	return median(out)
}

// shardRanges is the engine's balanced contiguous partition of n rows
// into p shards.
func shardRanges(n, p int) [][2]int {
	out := make([][2]int, p)
	lo := 0
	for s := 0; s < p; s++ {
		hi := lo + n/p
		if s < n%p {
			hi++
		}
		out[s] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// storeLayers replays the store's public search calls on sampled queries:
// the search at the workload budget, the bare scan (budget = k) with its
// row rate, warm and cold rescore cost per candidate, the integer kernel
// on a buffer shaped like the scanned plane, and a DRAM-read ceiling.
func storeLayers(tr *tracer, st *store.Store, qs [][]float64, k, budget int, l layers) error {
	n := st.Len()
	timed := tr.do
	var search, scan []float64
	for _, q := range qs {
		search = append(search, timed("store.SearchRange", func() { st.SearchRange(q, 0, n, k, budget) }))
	}
	s0 := st.Stats().Scanned
	scanTotal := 0.0
	for _, q := range qs {
		d := timed("store.SearchRange.scan", func() { st.SearchRange(q, 0, n, k, k) })
		scan = append(scan, d)
		scanTotal += d
	}
	rows := float64(st.Stats().Scanned - s0)
	rowsPerS := rows / (scanTotal / 1000)
	l.set("store.search_ms", "ms", median(search))
	l.set("store.scan_ms", "ms", median(scan))
	l.set("store.scan_rows_per_s", "1/s", rowsPerS)

	// Rescore cost: the same query over the same range at budget k and at
	// a budget that admits every row; the difference is the rescore of
	// the extra candidates (and their re-sort).
	hi := rescoreRange
	if hi > n {
		hi = n
	}
	base := make([]float64, len(qs))
	var warm, cold []float64
	for i, q := range qs {
		st.SearchRange(q, 0, hi, k, hi) // faults the range in
		base[i] = timed("store.SearchRange.range-k", func() { st.SearchRange(q, 0, hi, k, k) })
		r0 := st.Stats().Rescored
		full := timed("store.SearchRange.range-all", func() { st.SearchRange(q, 0, hi, k, hi) })
		warm = append(warm, (full-base[i])*1000/float64(st.Stats().Rescored-r0-uint64(k)))
	}
	l.set("store.rescore_us_per_cand", "us", median(warm))
	if _, ok := l["store.rescored_per_query"]; !ok {
		r0 := st.Stats().Rescored
		for _, q := range qs {
			st.SearchRange(q, 0, n, k, budget)
		}
		l.set("store.rescored_per_query", "count", float64(st.Stats().Rescored-r0)/float64(len(qs)))
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		return err
	}
	l.set("store.file_bytes_per_row", "B", float64(fi.Size())/float64(n))

	// Kernel and ceiling on a 256 MiB buffer, 2.4 times the L3. The
	// kernel's rows have the stride of the plane the scan streams: the
	// prefix plane where the store has one, else the code rows, padded to
	// 16 bytes.
	stride := st.PrefixDims()
	if stride == 0 {
		stride = (st.Dims() - st.FullDims() + 15) / 16 * 16
	}
	buf := make([]byte, 256<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	u := make([]uint16, stride)
	for j := range u {
		u[j] = uint16(j * 977 % 32768)
	}
	nrows := len(buf) / stride
	var out [8]int64
	var kern, dram []float64
	for rep := 0; rep < 4; rep++ {
		kern = append(kern, timed("linalg.DotQ15U8x8", func() {
			for i := 0; i+8 <= nrows; i += 8 {
				linalg.DotQ15U8x8(u, buf[i*stride:], stride, &out)
			}
		}))
		dram = append(dram, timed("dram.read", func() { sink += sumWords(buf) }))
	}
	gb := float64(nrows/8*8*stride) / 1e9
	kernGBps := gb / (median(kern) / 1000)
	dramGBps := float64(len(buf)) / 1e9 / (median(dram) / 1000)
	l.set("linalg.dotq15u8x8_gbps", "GB/s", kernGBps)
	l.set("dram.read_gbps", "GB/s", dramGBps)
	l.set("store.scan_dram_share_pct", "%", 100*rowsPerS*float64(st.BytesPerVectorScan())/1e9/dramGBps)

	// Cold rescore last: it evicts the exact region from the page cache.
	for i, q := range qs {
		st.DropExactPages()
		r0 := st.Stats().Rescored
		full := timed("store.SearchRange.range-all-cold", func() { st.SearchRange(q, 0, hi, k, hi) })
		cold = append(cold, (full-base[i])*1000/float64(st.Stats().Rescored-r0-uint64(k)))
	}
	l.set("store.rescore_cold_us_per_cand", "us", median(cold))
	return nil
}

// sink keeps the ceiling loop's sums live.
var sink uint64

// sumWords reads b as 64-bit words with four independent sums: a
// single-core sequential read ceiling.
func sumWords(b []byte) uint64 {
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	var s0, s1, s2, s3 uint64
	for i := 0; i+4 <= len(w); i += 4 {
		s0 += w[i]
		s1 += w[i+1]
		s2 += w[i+2]
		s3 += w[i+3]
	}
	return s0 + s1 + s2 + s3
}

// kitStoreLayers writes the musk-like set into a store and replays the
// store layers on it, for workloads that do not run the store themselves.
func kitStoreLayers(tr *tracer, dir string, ds *dataset.Dataset, qs [][]float64, l layers) error {
	path := filepath.Join(dir, "kit.qvs")
	defer os.Remove(path)
	var err error
	t := time.Now()
	tr.do("store.Write", func() { err = store.Write(path, ds.X, store.BuildConfig{Precision: store.Int8}) })
	if err != nil {
		return err
	}
	l.set("store.build_s", "s", time.Since(t).Seconds())
	var st *store.Store
	open := make([]float64, 3)
	for i := range open {
		if st != nil {
			st.Close()
		}
		if open[i] = tr.do("store.Open", func() { st, err = store.Open(path) }); err != nil {
			return err
		}
	}
	l.set("store.open_ms", "ms", median(open))
	defer st.Close()
	return storeLayers(tr, st, qs, scanK, scanRescore, l)
}
