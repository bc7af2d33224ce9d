package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSmoke runs a few ops of every workload, untraced and traced, and
// holds the output to the benchmark's contract: every metric prints in the
// table with its unit, the last line is the JSON result carrying the same
// metrics, no op failed, and the traced stats.* per-op values sum to the
// traced stats.cshare_us_per_op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for trace, want := range []map[string]string{endToEnd, perLayer} {
		t.Run(fmt.Sprintf("trace%d", trace), func(t *testing.T) {
			var out, errs bytes.Buffer
			args := []string{"--workload", "all", "--smoke", "--seed", "3", "--seconds", "3",
				"--trace", fmt.Sprint(trace), "--spans-out", t.TempDir()}
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			table := strings.Join(lines[:len(lines)-1], "\n")
			for _, w := range workloads {
				for name, unit := range want {
					m, ok := res.Metrics[w.name+"."+name]
					if !ok || m.Unit != unit {
						t.Errorf("%s: metric %s = %+v, want unit %s", w.name, name, m, unit)
					}
					if !strings.Contains(table, name) {
						t.Errorf("%s: metric %s missing from the table", w.name, name)
					}
				}
				if trace == 1 {
					var sum float64
					for _, ph := range []string{"index", "tag", "pack", "unpack", "conv"} {
						sum += res.Metrics[w.name+".stats."+ph+"_us_per_op"].Value
					}
					total := res.Metrics[w.name+".stats.cshare_us_per_op"].Value
					if total <= 0 || math.Abs(sum-total) > 1e-9*total {
						t.Errorf("%s: stats phases sum to %v, cshare is %v", w.name, sum, total)
					}
				}
			}
			if res.Attempted < len(workloads) || res.Failed != 0 || !res.Correct {
				var heads []string
				for _, l := range lines {
					if strings.Contains(l, "ops attempted") {
						heads = append(heads, l)
					}
				}
				t.Errorf("attempted %d, failed %d, correct %v:\n%s", res.Attempted, res.Failed, res.Correct, strings.Join(heads, "\n"))
			}
		})
	}
}

func TestCovered(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}, {start: 50, end: 60}}
	if got := covered(parent, kids); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}
