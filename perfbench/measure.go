package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"nxzip"
)

// workload is one closed-loop traffic mix. Each client runs pass after
// pass of its own fixed call sequence; a pass is the unit of work, so every
// run covers its inputs a whole number of times.
type workload interface {
	clients() []*client
	// pass runs one whole pass of c's call sequence, checking every output.
	pass(c *client)
	// layers describes the real path for the traced replays.
	layers() *layerInfo
	close()
}

// client is one closed-loop caller and everything it accumulates.
type client struct {
	id int
	// ref marks the reference pass: outputs are validated against the
	// standard library and stored, and the deterministic figures
	// (ratio, modelled rate) are accumulated.
	ref bool
	// corrupt flips a byte of the next checked output (self-test).
	corrupt bool
	// led is non-nil in the traced phase: spans and layer replays.
	led *clientLedger

	s   stats
	tot refTotals
}

type stats struct {
	ops, failed     int64
	compLat, decLat []int64 // per-call host ns (percentile samples)
	compBytes       int64   // uncompressed bytes through compress calls
	compNS          int64
	decBytes        int64 // uncompressed bytes out of decompress calls
	decNS           int64
	redispatches    int64
	degraded        int64
	failures        []string
}

// refTotals are the reference pass's deterministic figures: they depend
// on the seed alone, so every setup repetition must reproduce them.
type refTotals struct {
	compIn, compOut int64 // compression bytes in/out (ratio)
	modelBytes      int64 // uncompressed bytes with modelled device time
	modelNS         int64 // Σ Metrics.DeviceTime
}

const maxFailureNotes = 5

func (c *client) fail(format string, args ...any) {
	c.s.failed++
	if len(c.s.failures) < maxFailureNotes {
		c.s.failures = append(c.s.failures, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// compressed counts one compress-side call of n uncompressed bytes; sample
// adds its latency to the percentile set.
func (c *client) compressed(n int, d time.Duration, sample bool) {
	c.s.ops++
	c.s.compBytes += int64(n)
	c.s.compNS += int64(d)
	if sample {
		c.s.compLat = append(c.s.compLat, int64(d))
	}
}

// batched counts one batch call of calls entries and n uncompressed bytes;
// each entry counts as one call and the batch has no latency sample.
func (c *client) batched(n, calls int, d time.Duration) {
	c.compressed(n, d, false)
	c.s.ops += int64(calls) - 1
}

func (c *client) decompressed(n int, d time.Duration, sample bool) {
	c.s.ops++
	c.s.decBytes += int64(n)
	c.s.decNS += int64(d)
	if sample {
		c.s.decLat = append(c.s.decLat, int64(d))
	}
}

// device folds one call's device accounting: degraded results are
// failures, re-dispatches are counted, and on the reference pass the
// modelled time is summed against the call's uncompressed bytes.
func (c *client) device(what string, m *nxzip.Metrics, uncompressed int) {
	if m == nil {
		return
	}
	if m.Degraded {
		c.s.degraded++
		c.fail("%s: degraded to the software path", what)
	}
	c.s.redispatches += int64(m.Redispatches)
	if c.ref {
		c.tot.modelBytes += int64(uncompressed)
		c.tot.modelNS += int64(m.DeviceTime)
	}
}

func (c *client) ratio(in, out int) {
	if c.ref {
		c.tot.compIn += int64(in)
		c.tot.compOut += int64(out)
	}
}

// same reports whether got equals want byte for byte.
func (c *client) same(got, want []byte) bool {
	if c.corrupt && len(got) > 0 {
		c.corrupt = false
		got = append([]byte(nil), got...)
		got[len(got)/2] ^= 0x40
	}
	return bytes.Equal(got, want)
}

// referencePass runs one untimed pass per client, one client at a time, on
// the freshly built workload, and returns the deterministic figures.
func referencePass(w workload) (refTotals, error) {
	var t refTotals
	for _, c := range w.clients() {
		c.ref, c.tot = true, refTotals{}
		c.s = stats{}
		w.pass(c)
		c.ref = false
		if c.s.failed > 0 {
			return t, fmt.Errorf("reference pass: %d failures, first: %s", c.s.failed, c.s.failures[0])
		}
		t.compIn += c.tot.compIn
		t.compOut += c.tot.compOut
		t.modelBytes += c.tot.modelBytes
		t.modelNS += c.tot.modelNS
		c.s = stats{}
	}
	return t, nil
}

// phase is one measured closed-loop interval.
type phase struct {
	wall     time.Duration
	s        stats               // totals over every client
	per      []*stats            // each client's own figures
	passes   [][]pass            // each client's passes, in order
	mem      [2]runtime.MemStats // before, after
	liveHeap uint64              // HeapInuse after a forced GC at the end
}

// pass is one whole pass of a client's call sequence.
type pass struct {
	dur               time.Duration
	ops               int64
	compBytes, compNS int64
	decBytes, decNS   int64
}

// measure runs every client's passes concurrently until dur has passed,
// finishing the pass in progress.
func measure(w workload, dur time.Duration, corrupt bool, tl *ledgerRun) *phase {
	cs := w.clients()
	p := &phase{passes: make([][]pass, len(cs))}
	for _, c := range cs {
		c.s = stats{}
		c.corrupt = corrupt && c.id == 0
		c.led = nil
		if tl != nil {
			c.led = tl.clients[c.id]
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem[0])
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for {
				b, t0 := c.s, time.Now()
				w.pass(c)
				p.passes[i] = append(p.passes[i], pass{
					dur: time.Since(t0), ops: c.s.ops - b.ops,
					compBytes: c.s.compBytes - b.compBytes, compNS: c.s.compNS - b.compNS,
					decBytes: c.s.decBytes - b.decBytes, decNS: c.s.decNS - b.decNS,
				})
				if time.Since(start) >= dur {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&p.mem[1])
	for _, c := range cs {
		st := c.s
		p.per = append(p.per, &st)
		p.s.ops += c.s.ops
		p.s.failed += c.s.failed
		p.s.compBytes += c.s.compBytes
		p.s.compNS += c.s.compNS
		p.s.decBytes += c.s.decBytes
		p.s.decNS += c.s.decNS
		p.s.redispatches += c.s.redispatches
		p.s.degraded += c.s.degraded
		p.s.failures = append(p.s.failures, c.s.failures...)
		c.led = nil
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	p.liveHeap = m.HeapInuse
	return p
}

// passMedian is the median over every client's passes of f(pass).
func (p *phase) passMedian(f func(pass) float64) float64 {
	var v []float64
	for _, ps := range p.passes {
		for _, x := range ps {
			v = append(v, f(x))
		}
	}
	return median(v)
}

// opsPerSecond sums each client's median pass rate: the closed loop's
// aggregate throughput, robust to a pass slowed by outside interference.
func (p *phase) opsPerSecond() float64 {
	var tot float64
	for _, ps := range p.passes {
		v := make([]float64, len(ps))
		for i, x := range ps {
			v[i] = float64(x.ops) / x.dur.Seconds()
		}
		tot += median(v)
	}
	return tot
}

// chunkMin is the fewest samples a percentile chunk holds, so a p99 has at
// least tailFloor samples beyond it.
const chunkMin = 2600

// latency returns the q-quantile of per-call latency in µs: each client's
// samples, in call order, are cut into up to ten chunks of at least
// chunkMin samples; the result is the median of the chunk quantiles. A
// chunk too small to leave tailFloor samples beyond q uses the highest
// quantile that does (on bulk, whose calls take tens of milliseconds, the
// p99 becomes a p87 or so). It also returns the sample count and the lowest
// quantile used.
func (p *phase) latency(dec bool, q float64) (us float64, n int, used float64) {
	var qs []float64
	used = q
	for _, s := range p.per {
		lat := s.compLat
		if dec {
			lat = s.decLat
		}
		n += len(lat)
		k := min(10, max(1, len(lat)/chunkMin))
		for i := 0; i < k; i++ {
			chunk := lat[i*len(lat)/k : (i+1)*len(lat)/k]
			cq := q
			if m := len(chunk); m > tailFloor+1 {
				cq = min(q, float64(m-tailFloor-1)/float64(m-1))
			}
			qs = append(qs, percentile(chunk, cq))
			used = min(used, cq)
		}
	}
	return median(qs), n, used
}

// tailFloor is how many samples a reported quantile leaves beyond it:
// more than the ten the guideline asks for, so one slow call cannot move a
// tail figure by itself.
const tailFloor = 25

// percentile returns the q-quantile (0..1) of ns samples in µs, linearly
// interpolated between closest ranks.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return (float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])) / 1e3
}

func mbs(bytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

var latencyMetrics = []struct {
	name string
	dec  bool
	q    float64
}{
	{"compress_p50_us", false, 0.50},
	{"compress_p99_us", false, 0.99},
	{"decompress_p50_us", true, 0.50},
	{"decompress_p99_us", true, 0.99},
}

// e2eResult assembles the end-to-end metrics of an untraced phase.
func e2eResult(p *phase, ref refTotals, setup float64) *result {
	ops := p.s.ops
	r := &result{Correct: p.s.failed == 0, Attempted: ops, Failed: p.s.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", setup)
	put("ops_per_s", "1/s", p.opsPerSecond())
	put("compress_mbs", "MB/s", p.passMedian(func(x pass) float64 { return mbs(x.compBytes, x.compNS) }))
	put("decompress_mbs", "MB/s", p.passMedian(func(x pass) float64 { return mbs(x.decBytes, x.decNS) }))
	for _, l := range latencyMetrics {
		v, _, _ := p.latency(l.dec, l.q)
		put(l.name, "us", v)
	}
	put("ratio", "x", float64(ref.compIn)/float64(ref.compOut))
	put("model_gbs", "GB/s", float64(ref.modelBytes)/float64(ref.modelNS))
	put("allocs_per_op", "count", perOp(float64(p.mem[1].Mallocs-p.mem[0].Mallocs), ops))
	put("alloc_kb_per_op", "KiB", perOp(float64(p.mem[1].TotalAlloc-p.mem[0].TotalAlloc)/1024, ops))
	put("live_heap_mb", "MiB", float64(p.liveHeap)/(1<<20))
	return r
}

// e2eOrder is the print order of the end-to-end table.
var e2eOrder = []string{
	"setup_s", "ops_per_s", "compress_mbs", "decompress_mbs",
	"compress_p50_us", "compress_p99_us", "decompress_p50_us", "decompress_p99_us",
	"ratio", "model_gbs", "allocs_per_op", "alloc_kb_per_op", "live_heap_mb",
}

func printE2E(w io.Writer, name string, r *result, p *phase) {
	passes := 0
	for _, ps := range p.passes {
		passes += len(ps)
	}
	fmt.Fprintf(w, "workload %s: %d clients, %d calls in %d passes, %.3f s\n", name, len(p.per), p.s.ops, passes, p.wall.Seconds())
	notes := map[string]string{
		"ops_per_s":      "sum over clients of the median pass rate",
		"compress_mbs":   "median over passes",
		"decompress_mbs": "median over passes",
		"ratio":          "reference pass, deterministic",
		"model_gbs":      "reference pass, deterministic",
	}
	for _, l := range latencyMetrics {
		_, n, used := p.latency(l.dec, l.q)
		notes[l.name] = fmt.Sprintf("n=%d, median of chunk quantiles", n)
		if used < l.q {
			notes[l.name] += fmt.Sprintf(", capped at q=%.3f to leave %d samples beyond", used, tailFloor)
		}
	}
	for _, k := range e2eOrder {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-20s %14.4f %-6s %s\n", k, m.Value, m.Unit, notes[k])
	}
	fmt.Fprintf(w, "  %-20s %14.4f %-6s %d failed of %d attempted\n", "fail_ratio", perOp(float64(p.s.failed), p.s.ops), "ratio", p.s.failed, p.s.ops)
}

func printFailures(w io.Writer, p *phase) {
	for _, f := range p.s.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}
