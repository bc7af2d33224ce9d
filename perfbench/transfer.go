package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
)

// transfer-sl-tcp: a home on the Solaris/SPARC platform serving loopback
// transport.TCP, rank 0 dialing from the home platform and rank 1 from
// Linux/x86, both in a closed loop of transfers between accounts. One op
// is one transfer: lock both accounts' stripes in ascending order, move a
// seeded amount, unlock in reverse.
const (
	transferAccounts = 256
	transferWarmup   = 200 // transfers per rank before the first timed op
	transferBatch    = 200 * time.Millisecond
	// traceEvery samples the traced run's spans: one transfer in this
	// many is traced, which keeps a run's spans to a few megabytes.
	traceEvery = 16
)

var transferShape = shape{
	gthv: apps.TransferGThV(transferAccounts), field: "balances",
	elem: platform.CLongLong, replica: platform.LinuxX86, home: platform.SolarisSPARC,
}

// transferRank is one rank's closed loop: its thread, its seeded plan and
// the net change its completed transfers made to every account.
type transferRank struct {
	s   syncer
	buf *spanBuf // the rank's span buffer when traced
	// tracedUS holds the latencies of the sampled, traced transfers.
	tracedUS []float64
	bal      *dsd.Var
	rng      *rand.Rand
	delta    []int64
	opUS     []float64
	ops      int
	err      error
}

// transfer runs one planned transfer.
func (r *transferRank) transfer() error {
	from := r.rng.Intn(transferAccounts)
	to := r.rng.Intn(transferAccounts)
	for to/apps.TransferStripe == from/apps.TransferStripe {
		to = r.rng.Intn(transferAccounts)
	}
	amount := int64(r.rng.Intn(1000))
	lo, hi := 1+from/apps.TransferStripe, 1+to/apps.TransferStripe
	if lo > hi {
		lo, hi = hi, lo
	}
	if err := r.s.Lock(lo); err != nil {
		return err
	}
	if err := r.s.Lock(hi); err != nil {
		return err
	}
	f, err := r.bal.Int(from)
	if err != nil {
		return err
	}
	t, err := r.bal.Int(to)
	if err != nil {
		return err
	}
	if err := r.bal.SetInt(from, f-amount); err != nil {
		return err
	}
	if err := r.bal.SetInt(to, t+amount); err != nil {
		return err
	}
	if err := r.s.Unlock(hi); err != nil {
		return err
	}
	if err := r.s.Unlock(lo); err != nil {
		return err
	}
	r.delta[from] -= amount
	r.delta[to] += amount
	return nil
}

// loop runs transfers until deadline, timing each; with a tracer, every
// transfer is its own trace with an op span over its sync calls.
func (r *transferRank) loop(deadline time.Time, tr *tracer) {
	for r.err == nil && time.Now().Before(deadline) {
		start := time.Now()
		var opID uint64
		r.s.buf = nil
		if tr != nil && r.ops%traceEvery == 0 {
			r.s.buf, r.s.trace = r.buf, tr.newTrace()
			opID, start = r.buf.begin()
			r.s.parent = opID
		}
		err := r.transfer()
		if r.s.buf != nil {
			r.buf.end(layerOp, r.s.trace, 0, opID, start)
		}
		r.ops++
		if err != nil {
			r.err = err
			r.s.th.Close()
			break
		}
		d := us(time.Since(start))
		r.opUS = append(r.opUS, d)
		if r.s.buf != nil {
			r.tracedUS = append(r.tracedUS, d)
		}
	}
	r.s.buf, r.s.trace, r.s.parent = r.buf, 0, 0
}

// tcpCluster is a home serving loopback TCP with two dialed ranks.
type tcpCluster struct {
	home    *dsd.Home
	ranks   []*transferRank
	serving chan struct{}
}

// meteredTCP dials loopback TCP with every conn wrapped in transport.Meter.
type meteredTCP struct {
	transport.TCP
	meter *frameMeter
}

func (n meteredTCP) Dial(addr string) (transport.Conn, error) {
	c, err := n.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return transport.Meter(c, n.meter, n.meter), nil
}

// startTransfer builds the cluster, funds the accounts and warms both
// ranks up; the returned cluster is ready for timed ops.
func startTransfer(seed int64, meter *frameMeter, tr *tracer) (*tcpCluster, error) {
	gthv := apps.TransferGThV(transferAccounts)
	opts := dsd.DefaultOptions()
	home, err := dsd.NewHome(gthv, platform.SolarisSPARC, 2, opts)
	if err != nil {
		return nil, err
	}
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{home: home, serving: make(chan struct{})}
	go func() {
		defer close(c.serving)
		home.Serve(l)
	}()
	var nw transport.Network = transport.TCP{}
	if meter != nil {
		nw = meteredTCP{meter: meter}
	}
	for rank, plat := range []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86} {
		th, err := dsd.Dial(nw, l.Addr(), plat, int32(rank), gthv, opts)
		if err != nil {
			c.close()
			return nil, err
		}
		r := &transferRank{
			s:     syncer{th: th},
			bal:   th.Globals().MustVar("balances"),
			rng:   rand.New(rand.NewSource(seed*1000 + int64(rank))),
			delta: make([]int64, transferAccounts),
		}
		if tr != nil {
			r.buf = tr.buffer()
			r.s.buf = r.buf
		}
		c.ranks = append(c.ranks, r)
	}
	err = c.each(func(r *transferRank, rank int) error {
		if rank == 0 {
			if err := fund(r, seed); err != nil {
				return err
			}
		}
		if err := r.s.Barrier(0); err != nil {
			return err
		}
		for i := 0; i < transferWarmup; i++ {
			if err := r.transfer(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func fund(r *transferRank, seed int64) error {
	if err := r.s.Lock(0); err != nil {
		return err
	}
	if err := r.bal.SetInts(0, apps.TransferInitial(transferAccounts, seed)); err != nil {
		return err
	}
	if err := r.s.th.Globals().MustVar("n").SetInt(0, transferAccounts); err != nil {
		return err
	}
	return r.s.Unlock(0)
}

// each runs f on every rank concurrently and returns the first error.
func (c *tcpCluster) each(f func(r *transferRank, rank int) error) error {
	errs := make([]error, len(c.ranks))
	var wg sync.WaitGroup
	for i, r := range c.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(r, i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish ends the run through a barrier and joins, waits for the home,
// and checks every balance against the initial funding plus the net
// change of every transfer the ranks completed.
func (c *tcpCluster) finish(seed int64) error {
	err := c.each(func(r *transferRank, _ int) error {
		if err := r.s.Barrier(0); err != nil {
			return err
		}
		return r.s.Join()
	})
	if err != nil {
		return err
	}
	<-c.home.Done()
	want := apps.TransferInitial(transferAccounts, seed)
	for _, r := range c.ranks {
		for i, d := range r.delta {
			want[i] += d
		}
	}
	got, err := c.home.Globals().MustVar("balances").Ints(0, transferAccounts)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("balance %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// close disconnects the ranks, stops the listener and waits for Serve.
func (c *tcpCluster) close() {
	for _, r := range c.ranks {
		r.s.th.Close()
	}
	c.home.Close()
	<-c.serving
}

// counters reads the public counters of the home and both ranks.
func (c *tcpCluster) counters(meter *frameMeter) counters {
	ths := make([]*dsd.Thread, len(c.ranks))
	for i, r := range c.ranks {
		ths[i] = r.s.th
	}
	return countersOf(c.home, ths, meter)
}

// transferRounds runs the workload: per round a fresh cluster, then timed
// batches of closed-loop transfers with a GC and the calibration kernel
// between batches, then the barrier, join and balance check. With lt set,
// conns are metered, sync calls traced and each batch's counters added to
// lt.
func transferRounds(p params, seconds time.Duration, lt *layerTally, tr *tracer) []*round {
	var meter *frameMeter
	if lt != nil {
		meter = &lt.meter
	}
	var out []*round
	per := seconds / time.Duration(p.rounds)
	for i := 0; i < p.rounds; i++ {
		r := &round{}
		out = append(out, r)
		seed := p.seed + int64(i)
		start := time.Now()
		c, err := startTransfer(seed, meter, tr)
		r.setup = time.Since(start)
		if err != nil {
			r.ops++
			r.fail(err)
			continue
		}
		batch := transferBatch
		if p.smoke {
			batch = 20 * time.Millisecond
		}
		deadline := time.Now().Add(per)
		for n := 0; n == 0 || (time.Now().Before(deadline) && !(p.smoke && n >= 1)); n++ {
			settle(r)
			before := c.counters(meter)
			g0 := readGoStats()
			win := openWindow()
			end := time.Now().Add(batch)
			c.each(func(rk *transferRank, _ int) error {
				rk.loop(end, tr)
				return nil
			})
			win.close(r)
			delta := c.counters(meter).sub(before)
			r.cshare += delta.cshare()
			if lt != nil {
				lt.gs.add(readGoStats().sub(g0))
				lt.add(delta)
			}
			if c.err() != nil {
				break
			}
		}
		for _, rk := range c.ranks {
			r.ops += rk.ops
			r.opUS = append(r.opUS, rk.opUS...)
			if lt != nil {
				lt.completed += len(rk.opUS)
				lt.opUS = append(lt.opUS, rk.tracedUS...)
			}
		}
		if err = c.err(); err == nil {
			err = c.finish(seed)
		}
		if tr != nil {
			for _, rk := range c.ranks {
				tr.keep(rk.buf)
			}
		}
		c.close()
		if err != nil {
			// A wrong balance or a broken cluster condemns the round.
			r.failed = r.ops
			logFailure(err)
		}
	}
	return out
}

// err returns the error of a rank whose transfer failed. That rank's
// thread is closed, so the home frees its locks and the other rank stops.
func (c *tcpCluster) err() error {
	for _, r := range c.ranks {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func runTransfer(p params) (*result, error) {
	return endToEndMetrics(transferRounds(p, p.seconds, nil, nil)), nil
}

func tracedTransfer(p params) (*result, error) {
	untraced := endToEndMetrics(transferRounds(p, p.seconds/3, nil, nil))
	tr := newTracer()
	lt := &layerTally{}
	hw := watchHeap()
	rs := transferRounds(p, p.seconds-p.seconds/3, lt, tr)
	lt.heapPeakMB = hw.finish()
	lt.addRounds(rs)
	return lt.result("transfer-sl-tcp", p, tr, untraced, transferShape)
}
