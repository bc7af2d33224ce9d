package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetdsm/internal/dsd"
)

// layer names one kind of span the traced run records, each around a call
// into the program made from the benchmark's own code.
type layer uint8

const (
	layerOp layer = iota
	layerBuild
	layerRank
	layerLock
	layerUnlock
	layerBarrier
	layerJoin
	layerWait
	numLayers
)

var layerNames = [numLayers]string{
	layerOp:      "op",
	layerBuild:   "cluster.build",
	layerRank:    "rank",
	layerLock:    "dsd.lock",
	layerUnlock:  "dsd.unlock",
	layerBarrier: "dsd.barrier",
	layerJoin:    "dsd.join",
	layerWait:    "home.wait",
}

// selfMetric names the per-op self-time metric of each layer.
var selfMetric = [numLayers]string{
	layerOp:      "self.op_us_per_op",
	layerBuild:   "self.build_us_per_op",
	layerRank:    "self.rank_us_per_op",
	layerLock:    "self.lock_us_per_op",
	layerUnlock:  "self.unlock_us_per_op",
	layerBarrier: "self.barrier_us_per_op",
	layerJoin:    "self.join_us_per_op",
	layerWait:    "self.wait_us_per_op",
}

func isSync(l layer) bool { return l >= layerLock && l <= layerJoin }

// span is one timed call: which op (trace) it belongs to, the span that
// caused it, and its interval in nanoseconds since the tracer started.
type span struct {
	trace  uint64
	id     uint64
	parent uint64
	layer  layer
	start  int64
	end    int64
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	traces atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newTrace() uint64 { return t.traces.Add(1) }

// buffer returns a span buffer for one goroutine; spans reach the tracer
// when the buffer is kept, so recording takes no lock.
func (t *tracer) buffer() *spanBuf { return &spanBuf{t: t} }

func (t *tracer) keep(bufs ...*spanBuf) {
	t.mu.Lock()
	for _, b := range bufs {
		t.spans = append(t.spans, b.spans...)
		b.spans = b.spans[:0]
	}
	t.mu.Unlock()
}

type spanBuf struct {
	t     *tracer
	spans []span
}

func (b *spanBuf) begin() (uint64, time.Time) { return b.t.ids.Add(1), time.Now() }

func (b *spanBuf) end(l layer, trace, parent, id uint64, start time.Time) {
	b.spans = append(b.spans, span{
		trace: trace, id: id, parent: parent, layer: l,
		start: start.Sub(b.t.epoch).Nanoseconds(),
		end:   time.Since(b.t.epoch).Nanoseconds(),
	})
}

// syncer routes one rank's sync calls to its thread, recording a span
// around each when buf is set.
type syncer struct {
	th     *dsd.Thread
	buf    *spanBuf
	trace  uint64
	parent uint64
}

func (s *syncer) Lock(idx int) error {
	if s.buf == nil {
		return s.th.Lock(idx)
	}
	id, t0 := s.buf.begin()
	err := s.th.Lock(idx)
	s.buf.end(layerLock, s.trace, s.parent, id, t0)
	return err
}

func (s *syncer) Unlock(idx int) error {
	if s.buf == nil {
		return s.th.Unlock(idx)
	}
	id, t0 := s.buf.begin()
	err := s.th.Unlock(idx)
	s.buf.end(layerUnlock, s.trace, s.parent, id, t0)
	return err
}

func (s *syncer) Barrier(idx int) error {
	if s.buf == nil {
		return s.th.Barrier(idx)
	}
	id, t0 := s.buf.begin()
	err := s.th.Barrier(idx)
	s.buf.end(layerBarrier, s.trace, s.parent, id, t0)
	return err
}

func (s *syncer) Join() error {
	if s.buf == nil {
		return s.th.Join()
	}
	id, t0 := s.buf.begin()
	err := s.th.Join()
	s.buf.end(layerJoin, s.trace, s.parent, id, t0)
	return err
}

// spanStats summarises the kept spans of timed ops (trace id not 0):
// per-layer self time (a span's duration minus the part of it its
// children cover), sync-call latencies and the share of their parents'
// time sync calls take. A layer that no timed op calls, such as the
// barrier of transfer-sl-tcp, takes its latencies from the set-up and
// teardown spans instead.
type spanStats struct {
	self      [numLayers]time.Duration
	durations [numLayers][]float64
	syncCalls int
	syncShare float64
}

func (t *tracer) stats() spanStats {
	var st spanStats
	children := make(map[uint64][]span, len(t.spans))
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var untimed [numLayers][]float64
	syncParents := map[uint64]bool{}
	var syncNS, parentNS int64
	for _, s := range t.spans {
		d := s.end - s.start
		if s.trace == 0 {
			untimed[s.layer] = append(untimed[s.layer], float64(d)/1e3)
			continue
		}
		st.self[s.layer] += time.Duration(d - covered(s, children[s.id]))
		st.durations[s.layer] = append(st.durations[s.layer], float64(d)/1e3)
		if isSync(s.layer) {
			syncNS += d
			st.syncCalls++
			syncParents[s.parent] = true
		}
	}
	for l := range st.durations {
		if len(st.durations[l]) == 0 {
			st.durations[l] = untimed[l]
		}
	}
	for _, s := range t.spans {
		if s.trace != 0 && syncParents[s.id] {
			parentNS += s.end - s.start
		}
	}
	if parentNS > 0 {
		st.syncShare = float64(syncNS) / float64(parentNS)
	}
	return st
}

// covered is the length of the union of the children's intervals clipped
// to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b <= a {
			continue
		}
		if a > hi {
			total += hi - lo
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, s.id, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
