// Command perfbench is the repository's benchmark. It runs the DSM on the
// paper's virtual platforms, checks every result, and prints one JSON
// object as its last line of output:
//
//	bash perfbench/run.sh --workload matmul-sl --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one workload with no
// tracing; with --trace 1 it reports the per-layer metrics, measured from
// outside the program by timing calls into public functions and reading the
// counters the program already exposes (no dsd.Options hook is turned on).
// --workload all runs every workload in one process; --smoke runs a few ops
// of each and is what the package's own test uses.
//
// BENCHMARK.json at the repository root records why each workload exists
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// calibUS (host.calib_us_p50) and the per-round lines are printed
	// with the table of an untraced run but kept out of its JSON line,
	// which carries exactly the end-to-end metrics.
	calibUS float64
	rounds  []string
}

// params are the command-line settings every workload sees.
type params struct {
	seed     int64
	seconds  time.Duration
	rounds   int
	smoke    bool
	spansDir string
}

// workload is one input set of the benchmark. run measures the end-to-end
// metrics; traced measures the per-layer ones.
type workload struct {
	name   string
	run    func(p params) (*result, error)
	traced func(p params) (*result, error)
}

var workloads = []workload{
	{name: "matmul-sl", run: matmulSL.run, traced: matmulSL.traced},
	{name: "lu-ll", run: luLL.run, traced: luLL.traced},
	{name: "transfer-sl-tcp", run: runTransfer, traced: tracedTransfer},
}

// endToEnd and perLayer name every metric a run must print, with its unit;
// the smoke test and the final check in main hold each run to them.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"op_us_p50":        "us",
	"op_us_p90":        "us",
	"cpu_us_per_op":    "us",
	"cshare_us_per_op": "us",
	"alloc_kb_per_op":  "KiB",
	"ops_per_s":        "1/s",
}

var perLayer = map[string]string{
	"stats.index_us_per_op":       "us",
	"stats.tag_us_per_op":         "us",
	"stats.pack_us_per_op":        "us",
	"stats.unpack_us_per_op":      "us",
	"stats.conv_us_per_op":        "us",
	"stats.cshare_us_per_op":      "us",
	"stats.update_kb_per_op":      "KiB",
	"stats.releases_per_op":       "count",
	"vmem.faults_per_op":          "count",
	"vmem.diff_ns_per_kb":         "ns/KiB",
	"indextable.map_ns_per_range": "ns",
	"convert.mb_per_s":            "MB/s",
	"wire.encode_ns_per_kb":       "ns/KiB",
	"wire.decode_ns_per_kb":       "ns/KiB",
	"transport.frames_per_op":     "count",
	"transport.kb_per_op":         "KiB",
	"transport.rtt_us_p50":        "us",
	"dsd.lock_us_p50":             "us",
	"dsd.lock_us_p90":             "us",
	"dsd.unlock_us_p50":           "us",
	"dsd.barrier_us_p50":          "us",
	"dsd.sync_calls_per_op":       "count",
	"dsd.sync_share":              "ratio",
	"go.gc_cycles_per_op":         "count",
	"go.gc_cpu_share":             "ratio",
	"go.heap_peak_mb":             "MiB",
	"host.calib_us_p50":           "us",
	"trace.op_us_p50":             "us",
	"trace.untraced_op_us_p50":    "us",
	"trace.overhead_us":           "us",
	"self.op_us_per_op":           "us",
	"self.build_us_per_op":        "us",
	"self.rank_us_per_op":         "us",
	"self.lock_us_per_op":         "us",
	"self.unlock_us_per_op":       "us",
	"self.barrier_us_per_op":      "us",
	"self.join_us_per_op":         "us",
	"self.wait_us_per_op":         "us",
}

// deadline bounds a whole run: a hung cluster ends the process with an
// error instead of holding it past the harness's limit.
const deadline = 170 * time.Second

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: matmul-sl, lu-ll, transfer-sl-tcp or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 measures per-layer metrics")
	smoke := fs.Bool("smoke", false, "run a few ops per workload instead of --seconds")
	spans := fs.String("spans-out", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, not %d\n", *seconds)
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	p := params{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second / time.Duration(len(chosen)),
		rounds:   8,
		smoke:    *smoke,
		spansDir: *spans,
	}
	if p.smoke {
		p.rounds = 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}

	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		fn := w.run
		if *trace == 1 {
			fn = w.traced
		}
		res, err := fn(p)
		if err == nil {
			err = checkMetrics(res, want)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stdout, w.name, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkMetrics holds a workload's result to the names and units it must
// report, and refuses values JSON cannot carry.
func checkMetrics(res *result, want map[string]string) error {
	var errs []error
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", name))
		case m.Unit != unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s not declared", name))
		}
	}
	if res.Attempted < 1 {
		errs = append(errs, errors.New("no op attempted"))
	}
	return errors.Join(errs...)
}

func printTable(w io.Writer, name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s: %d ops attempted, %d failed, correct=%v, %s, GOMAXPROCS=%d\n",
		name, res.Attempted, res.Failed, res.Correct, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-16s %-28s %14.4f %s\n", name, k, m.Value, m.Unit)
	}
	if res.calibUS != 0 {
		fmt.Fprintf(w, "# %-14s %-28s %14.4f us\n", name, "host.calib_us_p50", res.calibUS)
	}
	for _, r := range res.rounds {
		fmt.Fprintf(w, "# %s %s\n", name, r)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i]*(1-frac) + xs[i+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
