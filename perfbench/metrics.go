package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tango/internal/telemetry"
)

// tails are the reported upper percentile of each statement class. A
// write's tail is set by whether a garbage collection started by the
// read before it is still running; on serving-mix its p90 ranged over a
// factor of three across ten runs, so writes report p75, the highest
// percentile that held steady.
var tails = []struct {
	class string
	q     float64
	name  string
}{
	{classTemporal, 0.9, "temporal_p90_ms"},
	{classSQL, 0.9, "sql_p90_ms"},
	{classWrite, 0.75, "write_p75_ms"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile estimates quantile q of a sample with the Harrell–Davis
// estimator: a Beta-weighted average of all order statistics. With the
// few dozen statements of a full-size run it is far steadier than a
// single order statistic, and with large samples it converges to one.
func percentile(xs []time.Duration, q float64) time.Duration {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * float64(s[i-1])
		prev = cur
	}
	return time.Duration(est)
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(rep *report, p *phaseStats, setup, peakMB float64) {
	m := rep.Metrics
	m["setup_s"] = metric{setup, "s"}
	m["stmt_per_s"] = metric{p.stmtRate, "stmt/s"}
	m["rows_per_s"] = metric{p.rowRate, "rows/s"}
	for _, t := range tails {
		m[t.class+"_p50_ms"] = metric{ms(percentile(p.lat[t.class], 0.5)), "ms"}
		m[t.name] = metric{ms(percentile(p.lat[t.class], t.q)), "ms"}
	}
	m["peak_rss_mb"] = metric{peakMB, "MB"}
}

// perLayer fills the traced run's layer metrics. Times are per
// statement that entered the layer; counts are per statement of the
// traced phase unless named otherwise.
func perLayer(rep *report, r *runner, untraced, traced *phaseStats, lt layerTimes, io ioCounters, reg *telemetry.Registry) {
	m := rep.Metrics
	n := float64(max(traced.attempted, 1))
	per := func(x, over float64) float64 {
		if over == 0 {
			return 0
		}
		return x / over
	}
	layerMS := func(name string) float64 { return per(ms(lt.self[name]), float64(lt.stmts[name])) }

	m["tsql.parse_ms"] = metric{layerMS("tsql.parse"), "ms"}
	opt := float64(traced.optimized)
	m["optimizer.optimize_ms"] = metric{layerMS("optimizer.optimize"), "ms"}
	m["optimizer.classes"] = metric{per(float64(traced.classes), opt), "count"}
	m["optimizer.elements"] = metric{per(float64(traced.elements), opt), "count"}
	m["optimizer.plans_costed"] = metric{per(float64(traced.plansCosted), opt), "count"}
	m["optimizer.truncated_share"] = metric{per(float64(traced.truncated), opt), "ratio"}
	m["optimizer.plan_switches"] = metric{float64(r.shapes.switches), "count"}
	m["workload.repeat_share"] = metric{per(float64(r.shapes.repeats), float64(r.shapes.total)), "ratio"}

	execStmts := float64(lt.stmts["tango.execute"])
	m["tango.execute_ms"] = metric{per(ms(lt.total["tango.execute"]), execStmts), "ms"}
	m["tango.self_ms"] = metric{layerMS("tango.execute"), "ms"}
	transfer := traced.transfer - lt.childSelf["tango.execute"]
	m["tango.transfer_self_ms"] = metric{per(ms(max(transfer, 0)), execStmts), "ms"}
	m["xxl.taggr_self_ms"] = metric{per(ms(traced.taggr), execStmts), "ms"}
	m["xxl.sort_self_ms"] = metric{per(ms(traced.sort), execStmts), "ms"}
	m["xxl.join_self_ms"] = metric{per(ms(traced.join), execStmts), "ms"}
	m["tango.fallbacks"] = metric{float64(traced.fallbacks), "count"}

	for _, op := range []string{"open", "fetch", "exec", "load", "insert", "stats"} {
		m["server."+op+"_ms"] = metric{layerMS("server." + op), "ms"}
	}
	m["server.admitted"] = metric{float64(io.admitted), "count"}
	m["server.queued"] = metric{float64(io.queued), "count"}
	m["server.shed"] = metric{float64(io.shed), "count"}

	w := readWire(reg)
	m["wire.round_trips"] = metric{w.roundTrips / n, "count"}
	m["wire.bytes_in"] = metric{w.bytesIn / n, "bytes"}
	m["wire.bytes_out"] = metric{w.bytesOut / n, "bytes"}
	m["wire.bytes_per_row"] = metric{per(w.bytesIn, w.rowsIn), "bytes"}
	m["client.retries"] = metric{w.retries, "count"}

	m["storage.pool_hit_ratio"] = metric{per(float64(io.pool.Hits), float64(io.pool.Hits+io.pool.Misses)), "ratio"}
	m["storage.pool_misses"] = metric{float64(io.pool.Misses) / n, "count"}
	m["storage.pool_evictions"] = metric{float64(io.pool.Evictions) / n, "count"}
	m["storage.disk_reads"] = metric{float64(io.disk.Reads) / n, "count"}
	m["storage.disk_writes"] = metric{float64(io.disk.Writes) / n, "count"}
	m["storage.fsyncs_per_commit"] = metric{per(float64(io.fsyncs), float64(io.fsCommits)), "ratio"}
	m["engine.commits"] = metric{float64(io.commits) / n, "count"}
	m["engine.commit_wait_ms"] = metric{per(ms(io.commitWait), float64(io.commits)), "ms"}

	m["runtime.allocs_per_stmt"] = metric{float64(io.mallocs) / n, "count"}
	m["runtime.alloc_mb_per_stmt"] = metric{float64(io.allocBytes) / n / (1 << 20), "MB"}
	m["runtime.gc_pause_ms"] = metric{float64(io.pauseNS) / 1e6 / n, "ms"}

	m["trace.overhead_ratio"] = metric{per(traced.stmtRate, untraced.stmtRate), "ratio"}
	m["trace.coverage"] = metric{per(float64(lt.covered), float64(lt.wall)), "ratio"}
}

// wireCounts are the client connection's own wire counters.
type wireCounts struct {
	roundTrips, bytesIn, bytesOut, rowsIn, retries float64
}

// readWire sums the client counters: one wire call per observed
// operation latency, payload bytes and rows by direction, and retries.
func readWire(reg *telemetry.Registry) wireCounts {
	var w wireCounts
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "tango_wire_op_seconds":
			w.roundTrips += float64(s.Count)
		case "tango_wire_bytes_total":
			if s.Labels["dir"] == "in" {
				w.bytesIn += s.Value
			} else {
				w.bytesOut += s.Value
			}
		case "tango_wire_rows_total":
			if s.Labels["dir"] == "in" {
				w.rowsIn += s.Value
			}
		case "tango_client_retries_total":
			w.retries += s.Value
		}
	}
	return w
}

// resetPeakRSS restarts the kernel's peak-RSS counter, so the peak
// covers only the timed phases. Where the kernel refuses, the peak
// includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
