package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// rows4 is a tiny row set on a line: ID i sits at x = i.
var rows4 = [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}

func trueDist(q []float64) func(id int) (float64, error) {
	return func(id int) (float64, error) {
		if id < 0 || id >= len(rows4) {
			return 0, errUnknown
		}
		return dist(rows4[id], q), nil
	}
}

var errUnknown = errors.New("unknown id")

func oracle(q []float64, k int) []nb {
	return bruteTopK(len(rows4), 2, func(i int, dst []float64) { copy(dst, rows4[i]) },
		func(i int) int { return i }, [][]float64{q}, k)[0]
}

func TestBruteTopKIsExact(t *testing.T) {
	got := oracle([]float64{2.2, 0}, 3)
	want := []int{2, 3, 1}
	for j, g := range got {
		if g.ID != want[j] {
			t.Fatalf("rank %d: id %d, want %d (%v)", j, g.ID, want[j], got)
		}
	}
}

// TestStoreScanOracleRejectsWrongAnswers: the checks store-scan applies to
// a sampled answer reject a wrong distance, a repeated ID, a wrong order
// and an unknown ID, and recall falls when a true neighbor is missing.
func TestStoreScanOracleRejectsWrongAnswers(t *testing.T) {
	q := []float64{2.2, 0}
	right := oracle(q, 2)
	if err := checkAnswer(right, 2, trueDist(q)); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if r := recall(right, right); r != 1 {
		t.Fatalf("recall of the oracle against itself = %v", r)
	}
	wrong := map[string][]nb{
		"wrong distance": {{2, 0.2}, {3, 0.81}},
		"repeated id":    {{2, 0.2}, {2, 0.2}},
		"out of order":   {{3, 0.8}, {2, 0.2}},
		"unknown id":     {{2, 0.2}, {9, 0.8}},
		"short":          {{2, 0.2}},
	}
	for name, ans := range wrong {
		if err := checkAnswer(ans, 2, trueDist(q)); err == nil {
			t.Errorf("%s: accepted %v", name, ans)
		}
	}
	missing := []nb{{2, dist(rows4[2], q)}, {1, dist(rows4[1], q)}}
	if err := checkAnswer(missing, 2, trueDist(q)); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	if r := recall(missing, right); r != 0.5 {
		t.Fatalf("recall with one true neighbor missing = %v, want 0.5", r)
	}
	if err := checkExact(missing, right); err == nil {
		t.Fatal("checkExact accepted an answer that skips the second nearest row")
	}
}

// mutLogs is a consistent two-client log over rows4: client 0 inserts
// id 4 and reads it back, then deletes id 0; client 1 reads afterwards.
func mutLogs() [][]mutOp {
	v := []float64{5, 0}
	return [][]mutOp{
		{
			{kind: opInsert, issue: 10, ack: 20, id: 4, q: -1, vec: v},
			{kind: opRead, issue: 30, ack: 40, id: 4, q: -1, res: []nb{{4, 0}, {3, 2}}},
			{kind: opDelete, issue: 50, ack: 60, id: 0, q: -1},
		},
		{
			{kind: opRead, issue: 70, ack: 80, id: -1, q: 0, res: []nb{{1, 0}, {2, 1}}},
		},
	}
}

func base4(id int) []float64 {
	if id < 0 || id >= len(rows4) {
		return nil
	}
	return rows4[id]
}

// TestMutateOracleRejectsViolations: the log replay accepts a consistent
// log and flags a deleted-ID hit, a stale read-your-writes read, a wrong
// distance and a duplicated insert ID, each in a log that differs from the
// consistent one in that one respect; the live-set brute force rejects an
// answer containing a deleted row.
func TestMutateOracleRejectsViolations(t *testing.T) {
	queries := [][]float64{rows4[1]}
	if r := checkMutations(mutLogs(), 2, base4, queries); r.violations() != 0 {
		t.Fatalf("consistent log flagged: %+v", r)
	}
	cases := map[string]func(l [][]mutOp) func(r mutReport) int{
		"deleted-id hit": func(l [][]mutOp) func(mutReport) int {
			l[1][0].res = []nb{{1, 0}, {0, 1}}
			return func(r mutReport) int { return r.DeletedHits }
		},
		"stale read-your-writes": func(l [][]mutOp) func(mutReport) int {
			l[0][1].res = []nb{{3, 2}, {2, 3}}
			return func(r mutReport) int { return r.Stale }
		},
		"wrong distance": func(l [][]mutOp) func(mutReport) int {
			l[1][0].res = []nb{{1, 0}, {2, 1.5}}
			return func(r mutReport) int { return r.BadAnswers }
		},
		"duplicate insert id": func(l [][]mutOp) func(mutReport) int {
			l[1] = append(l[1], mutOp{kind: opInsert, issue: 90, ack: 95, id: 4, q: -1, vec: []float64{6, 0}})
			return func(r mutReport) int { return r.DupIDs }
		},
	}
	for name, mutate := range cases {
		l := mutLogs()
		count := mutate(l)
		r := checkMutations(l, 2, base4, queries)
		if count(r) == 0 || r.First == "" {
			t.Errorf("%s not flagged: %+v", name, r)
		}
	}

	ids, rows := liveSet(mutLogs(), len(rows4), base4)
	if len(ids) != 4 || ids[0] != 1 || ids[3] != 4 {
		t.Fatalf("live set %v, want [1 2 3 4]", ids)
	}
	q := []float64{0.4, 0}
	want := bruteTopK(len(ids), 2, func(i int, dst []float64) { copy(dst, rows[i]) }, func(i int) int { return ids[i] }, [][]float64{q}, 2)[0]
	if want[0].ID != 1 || want[1].ID != 2 {
		t.Fatalf("live-set oracle %v, want ids 1, 2", want)
	}
	stale := []nb{{0, dist(rows4[0], q)}, {1, dist(rows4[1], q)}}
	if err := checkExact(stale, want); err == nil {
		t.Fatal("live-set oracle accepted an answer holding the deleted row 0")
	}
}

// TestPaperOracleRejectsWrongAccuracy: the recomputed feature-stripping
// accuracy matches a hand count, a wrong accuracy beyond the tolerance is
// rejected, and the eigenbasis check tells a true eigenbasis from a
// rotated one.
func TestPaperOracleRejectsWrongAccuracy(t *testing.T) {
	// Two tight clusters of three; point 5 is labelled against its cluster.
	y := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	labels := []int{0, 0, 0, 1, 1, 0}
	acc := looAccuracy(y, 6, 1, labels, 2)
	// Matches: points 0,1,2 find each other (2 each), 3 and 4 find one
	// label-1 neighbor each, 5 finds two label-1 neighbors.
	if want := 8.0 / 12; math.Abs(acc-want) > 1e-12 {
		t.Fatalf("looAccuracy = %v, want %v", acc, want)
	}
	if err := checkAccuracy(acc, acc, 6, 2); err != nil {
		t.Fatalf("exact accuracy rejected: %v", err)
	}
	if err := checkAccuracy(acc+0.01, acc, 6598, 3); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("wrong accuracy accepted (err %v)", err)
	}

	// Correlated 2-D data: the eigenbasis is the two diagonals.
	x := []float64{1, 1.1, 2, 1.9, -1, -0.9, -2, -2.1, 0.5, 0.4, -0.5, -0.6}
	s := 1 / math.Sqrt2
	good := []float64{s, -s, s, s}
	if r := eigenResidual(x, 6, 2, good, []int{0, 1}, false); r > 1e-2 {
		t.Fatalf("eigenbasis residual %v", r)
	}
	c, sn := math.Cos(0.3), math.Sin(0.3)
	rotated := []float64{c, -sn, sn, c}
	if r := eigenResidual(x, 6, 2, rotated, []int{0, 1}, false); r < 1e-2 {
		t.Fatalf("rotated basis passed the eigenbasis check (residual %v)", r)
	}
}

// TestScanRowsRepeat: a row drawn twice is the same row, which is what
// lets the store-scan oracle rebuild any row without reading the store,
// and neighbouring rows draw different jitter.
func TestScanRowsRepeat(t *testing.T) {
	g := &scanRows{seed: 7, n: 100, d: 3, nBase: 2, base: []float64{1, 2, 3, 4, 5, 6}, sd: []float64{1, 1, 1}}
	a, b := make([]float64, 3), make([]float64, 3)
	g.row(42, a)
	g.row(42, b)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("row 42 differs between draws: %v vs %v", a, b)
		}
	}
	g.row(43, b)
	if a[0] == b[0] {
		t.Fatal("rows 42 and 43 drew the same jitter")
	}
}
