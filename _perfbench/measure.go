package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (Hyndman–Fan type 7). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(h)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf runs f reps times and returns the median of its durations in ms.
func medianOf(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = ms(time.Since(t))
	}
	return median(ts)
}

// setupSeconds times samples of per back-to-back set-ups and returns the
// median sample's seconds per set-up. A sample spans about a second even
// where one set-up takes a fraction of one, so timer and scheduler jitter
// stay small against it.
func setupSeconds(samples, per int, f func()) float64 {
	return medianOf(samples, func() {
		for i := 0; i < per; i++ {
			f()
		}
	}) / 1000 / float64(per)
}

// procStatusKiB reads VmRSS and VmHWM of this process.
func procStatusKiB() (rss, hwm float64) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		v, _ := strconv.ParseFloat(fields[1], 64)
		switch fields[0] {
		case "VmRSS:":
			rss = v
		case "VmHWM:":
			hwm = v
		}
	}
	return rss, hwm
}

// cpuTime is this process's user+sys time from getrusage. It excludes the
// hypervisor steal that inflates wall time on a shared virtual machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuStat is the aggregate line of /proc/stat: total jiffies and steal.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	var s cpuStat
	for i, fv := range fields[1:] {
		v, _ := strconv.ParseUint(fv, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// phase brackets a timed phase: wall time, process CPU time, heap
// allocation and machine-wide steal between begin and end.
type phase struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
	stat  cpuStat

	Elapsed  time.Duration
	CPU      time.Duration
	Alloc    uint64
	StealPct float64
}

func beginPhase() *phase {
	return &phase{start: time.Now(), cpu: cpuTime(), alloc: heapAllocBytes(), stat: readCPUStat()}
}

func (p *phase) end() {
	p.Elapsed = time.Since(p.start)
	p.CPU = cpuTime() - p.cpu
	p.Alloc = heapAllocBytes() - p.alloc
	st := readCPUStat()
	if dt := st.total - p.stat.total; dt > 0 {
		p.StealPct = 100 * float64(st.steal-p.stat.steal) / float64(dt)
	}
}

// opSample is one timed operation: client-observed latency, completion
// time, and the engine's own queue wait and admission-to-merge time where
// it has them.
type opSample struct {
	kind        int8
	lat         time.Duration
	done        time.Time
	wait, total time.Duration
}

// endToEnd derives the end-to-end metrics of a timed phase.
//
// The tail quantile is fixed per workload so it never moves with the
// run's speed: p90 on store-scan (~200 ops, so p99 would rest on two)
// and on mutate-mix (whose sub-millisecond p99 tracks hypervisor steal
// more than the program), and the full-dims curve point on paper-sweep.
func endToEnd(setupS float64, p *phase, ops []opSample, tailQ float64, windows int) map[string]metric {
	rate, p50, tail := windowed(p, ops, tailQ, windows)
	n := float64(len(ops))
	// Resident memory is read after a forced collection that returns free
	// pages to the system, so it shows what the workload holds rather
	// than where the collector's pacing happened to leave the heap.
	runtime.GC()
	debug.FreeOSMemory()
	rss, hwm := procStatusKiB()
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {rate, "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_tail_ms": {tail, "ms"},
		"cpu_ms_per_op":   {ms(p.CPU) / n, "ms"},
		"alloc_kb_per_op": {float64(p.Alloc) / 1024 / n, "KiB"},
		"rss_mb":          {rss / 1024, "MiB"},
		"peak_rss_mb":     {hwm / 1024, "MiB"},
	}
}

// windowed splits a phase into equal windows by completion time and
// returns the median over windows of each window's throughput, median
// latency and tail latency. A stall of the virtual machine (a burst of
// hypervisor steal, a neighbour's memory traffic) then moves one window's
// figures, not the run's; with one window they are the whole phase's.
func windowed(p *phase, ops []opSample, tailQ float64, windows int) (rate, p50, tail float64) {
	width := p.Elapsed / time.Duration(windows)
	lats := make([][]float64, windows)
	for _, o := range ops {
		i := int(o.done.Sub(p.start) / width)
		i = max(0, min(i, windows-1))
		lats[i] = append(lats[i], ms(o.lat))
	}
	var rates, p50s, tails []float64
	for _, l := range lats {
		rates = append(rates, float64(len(l))/width.Seconds())
		p50s = append(p50s, quantile(l, 0.50))
		tails = append(tails, quantile(l, tailQ))
	}
	return median(rates), median(p50s), median(tails)
}

// span is one traced interval: a layer call or a replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them at exit. A nil tracer
// records nothing, which is how the untraced phases run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a finished span and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	t.mu.Unlock()
	return id
}

// do times f as a span named name and returns its milliseconds.
func (t *tracer) do(name string, f func()) float64 {
	s := time.Now()
	f()
	end := time.Now()
	t.record(name, 0, s, end)
	return ms(end.Sub(s))
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers collects per-layer metrics of a traced run.
type layers map[string]metric

func (l layers) set(name, unit string, v float64) { l[name] = metric{v, unit} }

// fill copies every metric of other that l lacks.
func (l layers) fill(other layers) {
	for k, v := range other {
		if _, ok := l[k]; !ok {
			l[k] = v
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
