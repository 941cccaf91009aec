package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/knn"
)

// opLog is one mutate-mix client's log of acknowledged operations. It is
// written to a file as the run goes, so the benchmark's own memory stays
// flat however many operations a run completes and the resident-memory
// metrics show the engine, not the log.
type opLog struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
	err error
}

func newOpLog(dir string) (*opLog, error) {
	f, err := os.CreateTemp(dir, "mutate-log-*.bin")
	if err != nil {
		return nil, err
	}
	return &opLog{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// add appends one record: kind, issue, ack, id, q, the inserted vector
// and the read answer.
func (l *opLog) add(op *mutOp, res []knn.Neighbor) {
	le := binary.LittleEndian
	b := append(l.buf[:0], byte(op.kind))
	b = le.AppendUint64(b, uint64(op.issue))
	b = le.AppendUint64(b, uint64(op.ack))
	b = le.AppendUint64(b, uint64(op.id))
	b = le.AppendUint64(b, uint64(op.q))
	b = le.AppendUint32(b, uint32(len(op.vec)))
	for _, v := range op.vec {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint32(b, uint32(len(res)))
	for _, r := range res {
		b = le.AppendUint64(b, uint64(r.Index))
		b = le.AppendUint64(b, math.Float64bits(r.Dist))
	}
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
	l.buf = b
}

// read decodes every record written so far.
func (l *opLog) read() ([]mutOp, error) {
	if l.err != nil {
		return nil, l.err
	}
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(l.f.Name())
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	u64 := func() uint64 { v := le.Uint64(b); b = b[8:]; return v }
	u32 := func() int { v := le.Uint32(b); b = b[4:]; return int(v) }
	var ops []mutOp
	for len(b) > 0 {
		if len(b) < 37 {
			return nil, fmt.Errorf("op log %s: truncated record", l.f.Name())
		}
		op := mutOp{kind: int8(b[0])}
		b = b[1:]
		op.issue, op.ack, op.id, op.q = int64(u64()), int64(u64()), int(int64(u64())), int(int64(u64()))
		if n := u32(); n > 0 {
			op.vec = make([]float64, n)
			for i := range op.vec {
				op.vec[i] = math.Float64frombits(u64())
			}
		}
		if n := u32(); n > 0 {
			op.res = make([]nb, n)
			for i := range op.res {
				op.res[i] = nb{int(int64(u64())), math.Float64frombits(u64())}
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func (l *opLog) close() {
	l.f.Close()
	os.Remove(l.f.Name())
}
