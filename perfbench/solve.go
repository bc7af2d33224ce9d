package main

import (
	"fmt"
	"sync"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
)

// solveWL is an in-process workload where one op is one whole solve: a
// fresh home on the pair's home platform, rank 0 beside it and rank 1 on
// the remote platform, exactly as apps.Run builds them.
type solveWL struct {
	name   string
	app    string
	n      int
	pair   string
	warmup int
	// expect computes the sequential result once per run and returns the
	// bit-exact check of a finished cluster's master copy against it.
	expect func(n int, seed int64) func(*dsd.Globals) error
	// body is the workload's per-rank code with every sync call routed
	// through s, so the traced run can time them from outside.
	body func(s *syncer, rank, nthreads, n int, seed int64) error
	// shape holds the GThV and describes the replica pages and element
	// runs the per-layer replays stand in for.
	shape shape
}

var matmulSL = &solveWL{
	name: "matmul-sl", app: "matmul", n: 255, pair: "SL", warmup: 2,
	expect: func(n int, seed int64) func(*dsd.Globals) error {
		want := apps.MatMulSeq(apps.GenIntMatrix(n, seed), apps.GenIntMatrix(n, seed+1), n)
		return func(g *dsd.Globals) error {
			got, err := g.MustVar("C").Ints(0, n*n)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("C[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			return nil
		}
	},
	body: matmulBody,
	shape: shape{gthv: apps.MatMulGThV(255), field: "C", elem: platform.CInt, dense: true,
		replica: platform.LinuxX86, home: platform.SolarisSPARC},
}

var luLL = &solveWL{
	name: "lu-ll", app: "lu", n: 138, pair: "LL", warmup: 2,
	expect: func(n int, seed int64) func(*dsd.Globals) error {
		want := apps.GenLUMatrix(n, seed)
		apps.LUSeq(want, n)
		return func(g *dsd.Globals) error {
			got, err := g.MustVar("A").Float64s(0, n*n)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("A[%d] = %v, want %v", i, got[i], want[i])
				}
			}
			return nil
		}
	},
	body: luBody,
	shape: shape{gthv: apps.LUGThV(138), field: "A", elem: platform.CDouble, dense: true,
		replica: platform.LinuxX86, home: platform.LinuxX86},
}

func (w *solveWL) platforms() apps.Pair {
	pair, ok := apps.PairByLabel(w.pair)
	if !ok {
		panic("perfbench: unknown pair " + w.pair)
	}
	return pair
}

// solve runs one untraced solve through apps.Run inside a timed window and
// verifies it outside the window. It returns the result of every solve
// that ran to the end, with the check's error when the result is wrong. The threads apps.Run leaves connected are
// closed afterwards, so their home stubs do not outlive the op.
func (w *solveWL) solve(r *round, pair apps.Pair, seed int64, check func(*dsd.Globals) error) (*apps.Result, error) {
	var home *dsd.Home
	var threads []*dsd.Thread
	cfg := apps.Config{
		Workload: w.app, N: w.n, Pair: pair, Threads: 2, Seed: seed,
		OnCluster: func(h *dsd.Home, ths []*dsd.Thread) { home, threads = h, ths },
	}
	win := openWindow()
	res, err := apps.Run(cfg)
	if r != nil {
		win.close(r)
	}
	if err == nil {
		err = check(home.Globals())
	}
	for _, th := range threads {
		th.Close()
	}
	return res, err
}

// rounds runs p.rounds rounds of warm-up ops plus timed ops, op being one
// timed op; it stops each round at its share of the measured time. A
// failed warm-up op counts as a failed op.
func rounds(p params, seconds time.Duration, warmups int, warm func() error, op func(r *round)) []*round {
	var out []*round
	per := seconds / time.Duration(p.rounds)
	for i := 0; i < p.rounds; i++ {
		r := &round{}
		start := time.Now()
		for j := 0; j < warmups; j++ {
			if err := warm(); err != nil {
				r.ops++
				r.fail(err)
			}
		}
		r.setup = time.Since(start)
		deadline := time.Now().Add(per)
		for n := 0; n == 0 || (time.Now().Before(deadline) && !(p.smoke && n >= 2)); n++ {
			settle(r)
			op(r)
		}
		out = append(out, r)
	}
	return out
}

func (w *solveWL) untraced(p params, seconds time.Duration) []*round {
	pair := w.platforms()
	check := w.expect(w.n, p.seed)
	warm := func() error {
		_, err := w.solve(nil, pair, p.seed, check)
		return err
	}
	return rounds(p, seconds, w.warmup, warm, func(r *round) {
		res, err := w.solve(r, pair, p.seed, check)
		r.ops++
		if err != nil {
			r.fail(err)
		}
		if res != nil {
			// A solve that ran to the end is timed even when its
			// result is wrong; the failure is counted above.
			r.opUS = append(r.opUS, us(res.Wall))
			r.cshare += res.AggTotal()
		}
	})
}

func (w *solveWL) run(p params) (*result, error) {
	return endToEndMetrics(w.untraced(p, p.seconds)), nil
}

// cluster is a traced in-process cluster built the way Home.LocalThread
// builds one, with every thread's conn wrapped in transport.Meter.
type cluster struct {
	home    *dsd.Home
	threads []*dsd.Thread
	serving sync.WaitGroup
}

func buildCluster(gthv tag.Struct, pair apps.Pair, meter *frameMeter) (*cluster, error) {
	opts := dsd.DefaultOptions()
	home, err := dsd.NewHome(gthv, pair.Home, 2, opts)
	if err != nil {
		return nil, err
	}
	c := &cluster{home: home}
	for rank, plat := range []*platform.Platform{pair.Home, pair.Remote} {
		a, b := transport.Pipe()
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			home.ServeConn(b)
		}()
		th, err := dsd.Connect(transport.Meter(a, meter, meter), plat, int32(rank), gthv, opts)
		if err != nil {
			a.Close()
			c.close()
			return nil, err
		}
		c.threads = append(c.threads, th)
	}
	return c, nil
}

// close disconnects every thread and waits for the home's stubs to exit.
func (c *cluster) close() {
	for _, th := range c.threads {
		th.Close()
	}
	c.serving.Wait()
}

// tracedSolve runs one solve on a cluster of its own with spans around the
// build, each rank's body, every sync call and the home's join wait.
func (w *solveWL) tracedSolve(lt *layerTally, tr *tracer, pair apps.Pair, seed int64, check func(*dsd.Globals) error) error {
	root := tr.buffer()
	trace := tr.newTrace()
	opID, opStart := root.begin()
	buildID, buildStart := root.begin()
	frames, frameBytes := lt.meter.frames.Load(), lt.meter.bytes.Load()
	c, err := buildCluster(w.shape.gthv, pair, &lt.meter)
	root.end(layerBuild, trace, opID, buildID, buildStart)
	if err != nil {
		root.end(layerOp, trace, 0, opID, opStart)
		tr.keep(root)
		return err
	}
	defer c.close()

	start := time.Now()
	errs := make([]error, len(c.threads))
	bufs := make([]*spanBuf, len(c.threads))
	var wg sync.WaitGroup
	for rank, th := range c.threads {
		bufs[rank] = tr.buffer()
		wg.Add(1)
		go func(rank int, th *dsd.Thread, buf *spanBuf) {
			defer wg.Done()
			id, t0 := buf.begin()
			errs[rank] = w.body(&syncer{th: th, buf: buf, trace: trace, parent: id}, rank, len(c.threads), w.n, seed)
			buf.end(layerRank, trace, opID, id, t0)
		}(rank, th, bufs[rank])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			root.end(layerOp, trace, 0, opID, opStart)
			tr.keep(append(bufs, root)...)
			return err
		}
	}
	waitID, waitStart := root.begin()
	c.home.Wait()
	root.end(layerWait, trace, opID, waitID, waitStart)
	wall := time.Since(start)
	root.end(layerOp, trace, 0, opID, opStart)
	tr.keep(append(bufs, root)...)

	lt.completed++
	lt.opUS = append(lt.opUS, us(wall))
	cs := countersOf(c.home, c.threads, &lt.meter)
	cs.frames -= frames
	cs.frameBytes -= frameBytes
	lt.add(cs)
	return check(c.home.Globals())
}

func (w *solveWL) traced(p params) (*result, error) {
	// A third of the time measures untraced ops with the same code as the
	// end-to-end run, so the tracing overhead is read off one process.
	untraced := endToEndMetrics(w.untraced(p, p.seconds/3))
	pair := w.platforms()
	check := w.expect(w.n, p.seed)
	tr := newTracer()
	lt := &layerTally{}
	warm := func() error { return w.tracedSolve(&layerTally{}, newTracer(), pair, p.seed, check) }
	hw := watchHeap()
	rs := rounds(p, p.seconds-p.seconds/3, w.warmup, warm, func(r *round) {
		g0 := readGoStats()
		err := w.tracedSolve(lt, tr, pair, p.seed, check)
		lt.gs.add(readGoStats().sub(g0))
		r.ops++
		if err != nil {
			r.fail(err)
		}
	})
	lt.heapPeakMB = hw.finish()
	lt.addRounds(rs)
	return lt.result(w.name, p, tr, untraced, w.shape)
}

// matmulBody is apps.MatMulThread with its sync calls routed through s.
func matmulBody(s *syncer, rank, nthreads, n int, seed int64) error {
	g := s.th.Globals()
	vA, vB, vC, vN := g.MustVar("A"), g.MustVar("B"), g.MustVar("C"), g.MustVar("n")
	if rank == 0 {
		if err := s.Lock(0); err != nil {
			return err
		}
		if err := vA.SetInts(0, apps.GenIntMatrix(n, seed)); err != nil {
			return err
		}
		if err := vB.SetInts(0, apps.GenIntMatrix(n, seed+1)); err != nil {
			return err
		}
		if err := vN.SetInt(0, int64(n)); err != nil {
			return err
		}
		if err := s.Unlock(0); err != nil {
			return err
		}
	}
	if err := s.Barrier(0); err != nil {
		return err
	}
	if gotN, err := vN.Int(0); err != nil {
		return err
	} else if int(gotN) != n {
		return fmt.Errorf("rank %d sees n=%d, want %d", rank, gotN, n)
	}
	first, count := rowsOf(n, nthreads, rank)
	a, err := vA.Ints(first*n, count*n)
	if err != nil {
		return err
	}
	b, err := vB.Ints(0, n*n)
	if err != nil {
		return err
	}
	c := make([]int64, count*n)
	for i := 0; i < count; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			row, out := b[k*n:], c[i*n:]
			for j := 0; j < n; j++ {
				out[j] += aik * row[j]
			}
		}
	}
	if err := vC.SetInts(first*n, c); err != nil {
		return err
	}
	if err := s.Barrier(0); err != nil {
		return err
	}
	return s.Join()
}

// rowsOf gives rank its contiguous block of n rows, as apps does.
func rowsOf(n, nthreads, rank int) (first, count int) {
	base, extra := n/nthreads, n%nthreads
	first = rank*base + min(rank, extra)
	count = base
	if rank < extra {
		count++
	}
	return first, count
}

// luBody is apps.LUThread with its sync calls routed through s.
func luBody(s *syncer, rank, nthreads, n int, seed int64) error {
	g := s.th.Globals()
	vA, vN := g.MustVar("A"), g.MustVar("n")
	if rank == 0 {
		if err := s.Lock(0); err != nil {
			return err
		}
		if err := vA.SetFloat64s(0, apps.GenLUMatrix(n, seed)); err != nil {
			return err
		}
		if err := vN.SetInt(0, int64(n)); err != nil {
			return err
		}
		if err := s.Unlock(0); err != nil {
			return err
		}
	}
	if err := s.Barrier(0); err != nil {
		return err
	}
	if gotN, err := vN.Int(0); err != nil {
		return err
	} else if int(gotN) != n {
		return fmt.Errorf("rank %d sees n=%d, want %d", rank, gotN, n)
	}
	for k := 0; k < n-1; k++ {
		rowK, err := vA.Float64s(k*n+k, n-k)
		if err != nil {
			return err
		}
		pivot := rowK[0]
		for i := k + 1; i < n; i++ {
			if i%nthreads != rank {
				continue
			}
			rowI, err := vA.Float64s(i*n+k, n-k)
			if err != nil {
				return err
			}
			l := rowI[0] / pivot
			rowI[0] = l
			for j := 1; j < n-k; j++ {
				rowI[j] -= l * rowK[j]
			}
			if err := vA.SetFloat64s(i*n+k, rowI); err != nil {
				return err
			}
		}
		if err := s.Barrier(0); err != nil {
			return err
		}
	}
	return s.Join()
}
