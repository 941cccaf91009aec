// Command perfbench is the repository's benchmark. It runs one workload
// in its own process from a seed and prints, as its last stdout line, one
// JSON object with the end-to-end metrics (or, with --trace 1, the
// per-layer metrics), the attempted and failed operation counts, and
// whether every output passed the independent oracles. See README.md.
//
//	bash _perfbench/run.sh --workload mutate-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/knn"
)

// workload is one benchmark workload. setup builds the program's state
// (several times where it is short) and returns the set-up seconds; warm
// runs untimed operations; run times whole rounds of operations for at
// least d, recording spans on tr when it is non-nil; check holds
// everything run recorded to the oracles; layers replays the layers the
// workload exercises; tail is the quantile reported as latency_tail_ms;
// windows is how many windows of a phase the throughput and latency
// figures take their median over.
type workload interface {
	setup(tr *tracer) (float64, error)
	tail() float64
	windows() int
	warm()
	run(tr *tracer, d time.Duration) ([]opSample, *phase, int)
	check() error
	layers(tr *tracer, l layers) error
	close()
}

// opWindows is the window count of the workloads whose phases hold
// hundreds of operations or more: 2 s windows of a 10 s phase.
const opWindows = 5

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "paper-sweep":
		return &paperSweep{seed: seed}, nil
	case "store-scan":
		return &storeScan{seed: seed, dir: dir}, nil
	case "mutate-mix":
		return &mutateMix{seed: seed, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-sweep, store-scan or mutate-mix)", name)
}

func main() {
	name := flag.String("workload", "", "paper-sweep, store-scan or mutate-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced phase and prints per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the store file and the traces")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed, dir)
	if err != nil {
		return err
	}
	defer w.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setupS, err := w.setup(tr)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	w.warm()
	runtime.GC()

	ops, p, failed := w.run(nil, d)
	attempted := len(ops) + failed
	logf("%s: %d ops in %.2f s, steal %.2f%% of machine cpu time", name, len(ops), p.Elapsed.Seconds(), p.StealPct)
	if len(ops) == 0 {
		return fmt.Errorf("%s: no operation completed", name)
	}
	metrics := endToEnd(setupS, p, ops, w.tail(), w.windows())

	if traced {
		// The collector figures cover the traced phase and the forced
		// collection that opens it, so they never read a constant zero on
		// a workload that allocates too little to collect in the phase.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runtime.GC()
		tops, tp, tfailed := w.run(tr, d)
		runtime.ReadMemStats(&m1)
		attempted += len(tops) + tfailed
		failed += tfailed
		l := layers{}
		untraced := metrics["ops_per_s"].Value
		traced, _, _ := windowed(tp, tops, w.tail(), w.windows())
		l.set("trace.overhead_pct", "%", 100*(untraced-traced)/untraced)
		l.set("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
		l.set("go.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		metrics = l
	}

	checkErr := w.check()
	if checkErr != nil {
		logf("check failed: %v", checkErr)
	}
	if traced {
		if err := w.layers(tr, metrics); err != nil {
			return fmt.Errorf("%s layers: %w", name, err)
		}
		if err := kit(tr, seed, dir, metrics); err != nil {
			return fmt.Errorf("%s layer kit: %w", name, err)
		}
		for _, n := range perLayer {
			if _, ok := metrics[n]; !ok {
				return fmt.Errorf("per-layer metric %s was not measured", n)
			}
		}
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))); err != nil {
			return err
		}
	}
	b, err := json.Marshal(result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// perLayer names every per-layer metric; a traced run reports each.
var perLayer = []string{
	"store.build_s", "store.open_ms", "store.search_ms", "store.scan_ms", "store.scan_rows_per_s",
	"store.rescore_us_per_cand", "store.rescore_cold_us_per_cand", "store.rescored_per_query",
	"store.file_bytes_per_row", "store.scan_dram_share_pct", "linalg.dotq15u8x8_gbps", "dram.read_gbps",
	"serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.fanout_ms", "serve.handoff_us",
	"serve.read_ms", "serve.insert_ms", "serve.delete_ms", "serve.tombstones_mean", "serve.delta_rows_mean",
	"serve.compact_ms", "serve.compactions", "lsh.build_ms",
	"stats.covariance_ms", "linalg.eigsym_ms", "core.coherence_ms", "reduction.fit_ms",
	"reduction.transform_ms", "eval.accuracy_ms", "knn.search_us",
	"go.gc_cycles", "go.gc_pause_ms", "trace.overhead_pct",
}

// kit measures, on the musk-like set, the layer families a workload does
// not exercise itself: a traced result names every per-layer metric of
// BENCHMARK.json whichever workload ran. Only the workload's own figures
// bear on its end-to-end metrics.
func kit(tr *tracer, seed int64, dir string, l layers) error {
	missing := func(prefix string) bool {
		for _, n := range perLayer {
			if _, ok := l[n]; !ok && len(n) > len(prefix) && n[:len(prefix)] == prefix {
				return true
			}
		}
		return false
	}
	if !missing("store.") && !missing("serve.") && !missing("stats.") {
		return nil
	}
	ds, held, err := musk(seed, scanSampled)
	if err != nil {
		return err
	}
	if missing("stats.") {
		if err := paperLayers(tr, ds, l); err != nil {
			return err
		}
	}
	if missing("store.") {
		if err := kitStoreLayers(tr, dir, ds, held, l); err != nil {
			return err
		}
	}
	if missing("serve.") {
		m := &mutateMix{seed: seed, dir: dir}
		defer m.close()
		if _, err := m.setup(nil); err != nil {
			return err
		}
		m.warm()
		kl := layers{}
		m.run(tr, mutWarm)
		if err := m.layers(tr, kl); err != nil {
			return err
		}
		l.fill(kl)
	}
	return nil
}

// toNB copies a program answer into the oracles' plain form.
func toNB(res []knn.Neighbor) []nb {
	out := make([]nb, len(res))
	for i, r := range res {
		out[i] = nb{r.Index, r.Dist}
	}
	return out
}
