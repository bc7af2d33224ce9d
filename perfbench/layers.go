package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetdsm/internal/convert"
	"hetdsm/internal/dsd"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/vmem"
	"hetdsm/internal/wire"
)

// frameMeter is the transport.FrameObserver the traced run hands
// transport.Meter: it counts frames and bytes and keeps a sample of frame
// sizes for the wire and transport replays.
type frameMeter struct {
	frames atomic.Uint64
	bytes  atomic.Uint64
	mu     sync.Mutex
	sizes  []int
}

const maxSizeSample = 1 << 16

func (m *frameMeter) Observe(v float64) {
	m.frames.Add(1)
	m.bytes.Add(uint64(v))
	m.mu.Lock()
	if len(m.sizes) < maxSizeSample {
		m.sizes = append(m.sizes, int(v))
	}
	m.mu.Unlock()
}

// layerTally accumulates what the traced ops expose through public
// counters: the Eq. 1 breakdowns, page faults, frames and GC activity.
type layerTally struct {
	// ops and failed count traced ops; completed counts those that ran to
	// the end, which every per-op ratio divides by.
	ops, failed int
	completed   int
	counters    counters
	meter       frameMeter
	gs          goStats
	opUS        []float64
	calib       []float64
	heapPeakMB  float64
}

// counters is a snapshot of the public counters of one cluster: the Eq. 1
// breakdowns of the home and every thread, the update bytes received,
// the threads' releases and write faults, and the metered frames.
type counters struct {
	phases      [stats.NumPhases]time.Duration
	updateBytes uint64
	releases    uint64
	faults      uint64
	frames      uint64
	frameBytes  uint64
}

func countersOf(home *dsd.Home, threads []*dsd.Thread, meter *frameMeter) counters {
	var c counters
	node := func(bd *stats.Breakdown) {
		for i, d := range bd.Snapshot() {
			c.phases[i] += d
		}
		c.updateBytes += bd.Bytes(stats.Unpack)
	}
	node(home.Stats())
	for _, th := range threads {
		node(th.Stats())
		c.releases += th.Stats().Count(stats.Index)
		c.faults += th.Segment().Faults()
	}
	if meter != nil {
		c.frames, c.frameBytes = meter.frames.Load(), meter.bytes.Load()
	}
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c.phases {
		c.phases[i] -= o.phases[i]
	}
	c.updateBytes -= o.updateBytes
	c.releases -= o.releases
	c.faults -= o.faults
	c.frames -= o.frames
	c.frameBytes -= o.frameBytes
	return c
}

// cshare is Eq. 1's total over the snapshot.
func (c counters) cshare() time.Duration {
	var t time.Duration
	for _, d := range c.phases {
		t += d
	}
	return t
}

func (lt *layerTally) add(c counters) {
	for i, d := range c.phases {
		lt.counters.phases[i] += d
	}
	lt.counters.updateBytes += c.updateBytes
	lt.counters.releases += c.releases
	lt.counters.faults += c.faults
	lt.counters.frames += c.frames
	lt.counters.frameBytes += c.frameBytes
}

func (lt *layerTally) addRounds(rs []*round) {
	for _, r := range rs {
		lt.ops += r.ops
		lt.failed += r.failed
		lt.calib = append(lt.calib, r.calib...)
	}
}

// result assembles the per-layer metrics from the traced ops, the spans
// and the replays, and writes the spans out.
func (lt *layerTally) result(name string, p params, tr *tracer, untraced *result, sh shape) (*result, error) {
	res := &result{Attempted: lt.ops, Failed: lt.failed, Correct: lt.failed == 0 && untraced.Correct, Metrics: map[string]metric{}}
	res.Attempted += untraced.Attempted
	res.Failed += untraced.Failed
	ops := float64(lt.completed)
	if ops < 1 {
		return nil, fmt.Errorf("no traced op completed (%d attempted)", lt.ops)
	}
	set := func(k string, v float64) { res.Metrics[k] = metric{v, perLayer[k]} }

	c := lt.counters
	var sum float64
	for ph, d := range c.phases {
		v := us(d) / ops
		set("stats."+stats.Phase(ph).String()+"_us_per_op", v)
		sum += v
	}
	// The stats.* per-op values sum to this one by construction.
	set("stats.cshare_us_per_op", sum)
	set("stats.update_kb_per_op", float64(c.updateBytes)/1024/ops)
	set("stats.releases_per_op", float64(c.releases)/ops)
	set("vmem.faults_per_op", float64(c.faults)/ops)
	set("transport.frames_per_op", float64(c.frames)/ops)
	set("transport.kb_per_op", float64(c.frameBytes)/1024/ops)
	set("go.gc_cycles_per_op", float64(lt.gs.gcCycles)/ops)
	gcShare := 0.0
	if lt.gs.usedCPU > 0 {
		gcShare = lt.gs.gcCPU / lt.gs.usedCPU
	}
	set("go.gc_cpu_share", gcShare)
	set("go.heap_peak_mb", lt.heapPeakMB)
	set("host.calib_us_p50", median(lt.calib))

	tracedP50 := quantile(lt.opUS, 0.5)
	base := untraced.Metrics["op_us_p50"].Value
	set("trace.op_us_p50", tracedP50)
	set("trace.untraced_op_us_p50", base)
	set("trace.overhead_us", tracedP50-base)

	// Span-derived ratios divide by the traced ops, which are a sample
	// of the ops on transfer-sl-tcp.
	st := tr.stats()
	traced := float64(tr.traces.Load())
	for l := layer(0); l < numLayers; l++ {
		set(selfMetric[l], us(st.self[l])/traced)
	}
	set("dsd.lock_us_p50", quantile(st.durations[layerLock], 0.5))
	set("dsd.lock_us_p90", quantile(st.durations[layerLock], 0.9))
	set("dsd.unlock_us_p50", quantile(st.durations[layerUnlock], 0.5))
	set("dsd.barrier_us_p50", quantile(st.durations[layerBarrier], 0.5))
	set("dsd.sync_calls_per_op", float64(st.syncCalls)/traced)
	set("dsd.sync_share", st.syncShare)

	lt.meter.mu.Lock()
	sizes := append([]int(nil), lt.meter.sizes...)
	lt.meter.mu.Unlock()
	rp, err := replay(sh, sizes, p.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range rp {
		set(k, v)
	}
	if err := tr.write(filepath.Join(p.spansDir, name+".jsonl")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// shape describes what a workload's releases look like, for the replays
// that time single layers on inputs like the workload's own: the GThV
// member it writes, the element type, whether a release rewrites every
// element of its pages (dense) or two words per page, and the platform of
// the replica that diffs and of the home that converts.
type shape struct {
	gthv    tag.Struct
	field   string
	elem    platform.CType
	dense   bool
	replica *platform.Platform
	home    *platform.Platform
}

// reps is how many times each replay repeats its fixed amount of work;
// every replay metric is the median over the repetitions.
const reps = 15

// timeRep returns the median over reps of f's duration.
func timeRep(f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

var replaySink int

// replay times the diff scan, index mapping, conversion, wire codec and
// TCP round trip on inputs shaped like the workload's.
func replay(sh shape, frameSizes []int, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	layout, err := tag.NewLayout(sh.gthv, sh.replica)
	if err != nil {
		return nil, err
	}
	table, err := indextable.Build(layout, dsd.DefaultBase)
	if err != nil {
		return nil, err
	}
	entry, ok := table.EntryByName(sh.field)
	if !ok {
		return nil, fmt.Errorf("GThV has no member %q", sh.field)
	}
	seg, err := vmem.NewSegment(dsd.DefaultBase, layout.Size, sh.replica.PageSize)
	if err != nil {
		return nil, err
	}

	// Dirty the member's pages the way the workload does: every element
	// rewritten, or two elements per page.
	rng := rand.New(rand.NewSource(seed))
	seg.ProtectAll()
	elem := make([]byte, entry.ElemSize)
	var runs [][2]int // (first element, count) of each converted run
	perPage := sh.replica.PageSize / entry.ElemSize
	for first := 0; first < entry.Count; first += perPage {
		count := min(perPage, entry.Count-first)
		if !sh.dense {
			for _, i := range []int{first + rng.Intn(count), first + rng.Intn(count)} {
				putElem(sh.replica, sh.elem, elem, rng)
				if err := seg.Write(entry.Offset+i*entry.ElemSize, elem); err != nil {
					return nil, err
				}
				runs = append(runs, [2]int{i, 1})
			}
			continue
		}
		buf := make([]byte, count*entry.ElemSize)
		for i := 0; i < count; i++ {
			putElem(sh.replica, sh.elem, buf[i*entry.ElemSize:], rng)
		}
		if err := seg.Write(entry.Offset+first*entry.ElemSize, buf); err != nil {
			return nil, err
		}
	}
	if sh.dense {
		runs = [][2]int{{0, entry.Count}}
	}

	var ranges []vmem.Range
	d := timeRep(func() { ranges = seg.Diff(vmem.DiffByte) })
	scannedKB := float64(len(seg.DirtyPages())*sh.replica.PageSize) / 1024
	out["vmem.diff_ns_per_kb"] = float64(d) / scannedKB
	if len(ranges) == 0 {
		return nil, fmt.Errorf("replayed diff found no ranges")
	}

	var spans []indextable.Span
	d = timeRep(func() { spans = table.MapRanges(ranges) })
	out["indextable.map_ns_per_range"] = float64(d) / float64(len(ranges))
	replaySink += len(spans)

	// Conversion runs the way the home receives the replica's bytes.
	src, err := seg.View(entry.Offset, entry.Bytes())
	if err != nil {
		return nil, err
	}
	var dst []byte
	var convErr error
	d = timeRep(func() {
		for _, r := range runs {
			dst, _, convErr = convert.ScalarRun(dst[:0], sh.home, src[r[0]*entry.ElemSize:], sh.replica, sh.elem, r[1], convert.Options{})
		}
	})
	if convErr != nil {
		return nil, convErr
	}
	var convBytes int
	for _, r := range runs {
		convBytes += r[1] * entry.ElemSize
	}
	out["convert.mb_per_s"] = float64(convBytes) / 1e6 / (float64(d) / 1e9)

	enc, dec, err := replayWire(sh, entry, frameSizes)
	if err != nil {
		return nil, err
	}
	out["wire.encode_ns_per_kb"], out["wire.decode_ns_per_kb"] = enc, dec

	rtt, err := echoRTT(quantileInt(frameSizes, 0.5))
	if err != nil {
		return nil, err
	}
	out["transport.rtt_us_p50"] = rtt
	return out, nil
}

// putElem writes one random element of type ct in p's representation.
func putElem(p *platform.Platform, ct platform.CType, b []byte, rng *rand.Rand) {
	switch ct {
	case platform.CDouble:
		p.PutFloat64(b, rng.Float64()*2-1)
	default:
		p.PutInt(b, p.CSizeOf(ct), int64(1+rng.Intn(250000)))
	}
}

func quantileInt(xs []int, q float64) int {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int(quantile(fs, q))
}

// replayWire times wire.Encode and wire.Decode on update-bearing messages
// sized like nine quantiles of the workload's observed frames.
func replayWire(sh shape, entry indextable.Entry, frameSizes []int) (encNSPerKB, decNSPerKB float64, err error) {
	if len(frameSizes) == 0 {
		return 0, 0, fmt.Errorf("no frames observed")
	}
	var msgs []*wire.Message
	for q := 0.1; q < 0.95; q += 0.1 {
		size := quantileInt(frameSizes, q)
		count := min(entry.Count, max(0, size-64)/entry.ElemSize)
		m := &wire.Message{Kind: wire.KindUnlockReq, Seq: 7, Rank: 1, Platform: sh.replica.Name, Base: dsd.DefaultBase}
		if count > 0 {
			m.Updates = []wire.Update{{
				Entry: int32(entry.Index), Count: int32(count),
				Tag:  fmt.Sprintf("(%d,%d)", entry.ElemSize, count),
				Data: make([]byte, count*entry.ElemSize),
			}}
		}
		msgs = append(msgs, m)
	}
	frames := make([][]byte, len(msgs))
	var kb float64
	for i, m := range msgs {
		if frames[i], err = wire.Encode(m); err != nil {
			return 0, 0, err
		}
		kb += float64(len(frames[i])) / 1024
	}
	const loops = 20
	enc := timeRep(func() {
		for j := 0; j < loops; j++ {
			for _, m := range msgs {
				f, _ := wire.Encode(m)
				replaySink += len(f)
			}
		}
	})
	var decErr error
	dec := timeRep(func() {
		for j := 0; j < loops; j++ {
			for _, f := range frames {
				m, err := wire.Decode(f)
				if err != nil {
					decErr = err
					return
				}
				replaySink += len(m.Updates)
			}
		}
	})
	if decErr != nil {
		return 0, 0, decErr
	}
	return float64(enc) / (kb * loops), float64(dec) / (kb * loops), nil
}

// echoRTT is the median round trip of a size-byte frame over a loopback
// transport.TCP connection whose far end echoes every frame.
func echoRTT(size int) (float64, error) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		for {
			f, err := c.RecvFrame()
			if err != nil {
				served <- nil
				return
			}
			if err := c.SendFrame(f); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := transport.TCP{}.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	frame := make([]byte, max(size, 1))
	rtts := make([]float64, 0, 2000)
	for i := 0; i < cap(rtts); i++ {
		start := time.Now()
		if err := c.SendFrame(frame); err != nil {
			c.Close()
			<-served
			return 0, err
		}
		if _, err := c.RecvFrame(); err != nil {
			c.Close()
			<-served
			return 0, err
		}
		rtts = append(rtts, us(time.Since(start)))
	}
	c.Close()
	if err := <-served; err != nil {
		return 0, err
	}
	return quantile(rtts, 0.5), nil
}
