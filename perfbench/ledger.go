package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/flightrec"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/telemetry"
	"nxzip/internal/vas"
)

// spanKind names a span: the per-request span, the public call, or one
// layer function replayed from outside.
type spanKind uint8

const (
	kRequest spanKind = iota
	kCall
	kSubmit
	kTokenize
	kDHT
	kEncode
	kFraming
	kInflate
	kCRC
	kAdler
	kTranslate
	kPaste
	kPick
	kAdmit
	kFlightrec
	kObserve
	numKinds
)

var kindNames = [numKinds]string{
	"request", "nxzip.call", "nx.submit", "lz77.tokenize", "deflate.dht_build",
	"deflate.encode", "deflate.framing", "deflate.inflate", "checksum.crc32",
	"checksum.adler32", "nmmu.translate", "vas.paste_round", "topology.pick",
	"admission.admit", "flightrec.complete", "telemetry.observe",
}

// opKind names the public call a request span stands for.
type opKind uint8

const (
	opCompress opKind = iota
	opDecompress
	opBatch
	opStreamWrite
	opWriterWrite
	opParallelWrite
	opStreamRead
	opParallelRead
	numOps
)

var opNames = [numOps]string{
	"compress", "decompress", "CompressBatch", "StreamWriter", "Writer",
	"ParallelWriter", "StreamReader", "ParallelReader",
}

func (o opKind) String() string { return opNames[o] }

// inLedger reports whether a request's work happens inside its call span.
// ParallelWriter and ParallelReader hand chunks to worker goroutines, so
// their calls are timed but not decomposed.
func (o opKind) inLedger() bool { return o != opParallelWrite && o != opParallelRead }

// span is one timed interval, kept in memory until the run ends.
type span struct {
	start, end int64 // ns since the run epoch
	req        uint64
	parent     int32 // index of the request span, -1 for a request span
	bytes      int64
	kind       spanKind
	op         opKind
	// onPath is false for a layer replayed on a workload whose real path
	// does not cross it: its cost is measured but not counted in the
	// ledger of that workload.
	onPath bool
}

// stageSink sums the modelled pipeline-stage cycles of the replay devices.
type stageSink struct {
	mu     sync.Mutex
	cycles [len(pipelineStages)]int64
	bytes  int64 // uncompressed bytes of the traced requests
}

var pipelineStages = [...]telemetry.Stage{
	telemetry.StageSetup, telemetry.StageTranslate, telemetry.StageDHTGen,
	telemetry.StageDMAIn, telemetry.StageLZ, telemetry.StageEncode,
	telemetry.StageDecode, telemetry.StageDMAOut, telemetry.StageComplete,
}

func (s *stageSink) Emit(sp *telemetry.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range pipelineStages {
		s.cycles[i] += sp.CyclesFor(st)
	}
	s.bytes += int64(max(sp.InBytes, sp.OutBytes))
}

func (s *stageSink) Close() error { return nil }

func (s *stageSink) snapshot() ([len(pipelineStages)]int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycles, s.bytes
}

// ledgerRun is the traced run of one workload.
type ledgerRun struct {
	w       workload
	info    *layerInfo
	seed    int64
	epoch   time.Time
	clients []*clientLedger
	adm     *admission.Controller // standalone gate shared by the replays
	rec     *flightrec.Recorder   // standalone recorder shared by the replays
	stages  *stageSink

	// otherFailed counts failures outside the measured phases: the count
	// pass and the off-path stream calibration.
	otherFailed int64
	// Deterministic figures from the count pass.
	counts struct {
		hw          lz77.HWStats
		lzBytes     int64
		stageCycles [len(pipelineStages)]int64
		stageBytes  int64
		dhtAllocs   uint64
		dhtBuilds   int64
	}
	// Live counters of the real path around the untraced phase.
	before, after liveCounters
}

func newLedgerRun(w workload, seed int64) *ledgerRun {
	tl := &ledgerRun{w: w, info: w.layers(), seed: seed, epoch: time.Now(), stages: &stageSink{}}
	tl.adm, tl.rec = newSharedReplays(tl.info)
	for _, c := range w.clients() {
		tl.clients = append(tl.clients, newClientLedger(tl, c))
	}
	return tl
}

// countPass runs one traced pass per client, one at a time, on fresh
// replay instances, and keeps the counters that depend only on the seed:
// the LZ77 hardware statistics, the modelled stage cycles and the DHT
// allocations. Its spans are discarded.
func (tl *ledgerRun) countPass() {
	for _, c := range tl.w.clients() {
		l := tl.clients[c.id]
		c.s, c.led, l.counting = stats{}, l, true
		tl.w.pass(c)
		tl.otherFailed += c.s.failed
		l.counting, c.led = false, nil
		k := &tl.counts
		addHW(&k.hw, l.hw)
		k.lzBytes += l.lzBytes
		k.dhtAllocs += l.dhtAllocs
		k.dhtBuilds += l.dhtBuilds
		l.spans = l.spans[:0]
		l.renewDevice()
	}
	tl.counts.stageCycles, tl.counts.stageBytes = tl.stages.snapshot()
	tl.stages = &stageSink{}
	for _, l := range tl.clients {
		l.dev.StartTrace(tl.stages)
	}
}

// liveCounters samples the real node's own instruments.
type liveCounters struct {
	mmu        nmmu.Stats
	vas        vas.Stats
	dispatched []int64
	adm        admission.Status
	admQueued  int64 // admissions that waited in the pending queue
	qwSum      float64
	qwCount    int64
}

func (tl *ledgerRun) sample() liveCounters {
	var lc liveCounters
	for _, d := range tl.info.devices {
		s := d.MMU().Stats()
		lc.mmu.Hits += s.Hits
		lc.mmu.Misses += s.Misses
		lc.mmu.Faults += s.Faults
		lc.vas = lc.vas.Add(d.Switchboard().Stats())
	}
	if tl.info.dispatched != nil {
		lc.dispatched = tl.info.dispatched()
	}
	snap := tl.info.snapshot()
	if h, ok := snap.Histogram("nx.queue_wait_us", ""); ok {
		lc.qwSum, lc.qwCount = h.Sum, h.Count
	}
	if tl.info.adm != nil {
		lc.adm = tl.info.adm.StatusNow()
		if h, ok := snap.Histogram("admission.queue_wait_us", ""); ok {
			lc.admQueued = h.Count
		}
	}
	return lc
}

// row is one line of the per-layer table.
type row struct {
	name, unit string
	value      float64
	note       string
}

// result computes the per-layer metrics from the spans of the traced
// phase, the count pass, and the live counters of the untraced phase.
func (tl *ledgerRun) result(plain, traced *phase) (*result, []row) {
	var (
		sum      [numKinds]int64 // Σ duration per kind
		n        [numKinds]int64 // spans per kind
		nb       [numKinds]int64
		onPath   [numKinds]int64 // Σ on-path duration per kind, ledger requests
		e2e      int64           // Σ call duration of ledger requests
		rootNS   int64           // Σ (call − nx.submit) of requests with a submit
		rootN    int64
		selfReq  int64 // Σ self time of request spans (replay bookkeeping)
		opCall   [numOps]int64
		opCallN  [numOps]int64
		opBytes  [numOps]int64
		allSpans int
	)
	for _, l := range tl.clients {
		allSpans += len(l.spans)
		var reqCall, reqSubmit, reqChildren int64
		var reqIdx = -1
		flush := func() {
			if reqIdx < 0 {
				return
			}
			r := l.spans[reqIdx]
			selfReq += (r.end - r.start) - reqChildren
			if reqSubmit > 0 {
				rootNS += reqCall - reqSubmit
				rootN++
			}
		}
		for i, s := range l.spans {
			d := s.end - s.start
			if s.kind == kRequest {
				flush()
				reqIdx, reqCall, reqSubmit, reqChildren = i, 0, 0, 0
				continue
			}
			reqChildren += d
			sum[s.kind] += d
			n[s.kind]++
			nb[s.kind] += s.bytes
			switch s.kind {
			case kCall:
				reqCall = d
				opCall[s.op] += d
				opCallN[s.op]++
				opBytes[s.op] += s.bytes
				if s.op.inLedger() {
					e2e += d
				}
			case kSubmit:
				reqSubmit += d
			default:
				if s.onPath && s.op.inLedger() {
					onPath[s.kind] += d
				}
			}
		}
		flush()
	}

	var rows []row
	r := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64, note string) {
		r.Metrics[name] = metric{Value: v, Unit: unit}
		rows = append(rows, row{name: name, unit: unit, value: v, note: note})
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perKB := func(k spanKind) float64 { return ratio(float64(sum[k]), float64(nb[k])/1024) }
	meanNS := func(k spanKind) float64 { return ratio(float64(sum[k]), float64(n[k])) }
	share := func(ks ...spanKind) string {
		var v int64
		for _, k := range ks {
			v += onPath[k]
		}
		if v == 0 {
			return "off path: measured, not in the ledger"
		}
		return fmt.Sprintf("%.2f%% of call time", 100*ratio(float64(v), float64(e2e)))
	}
	k := &tl.counts
	lzKB := float64(k.lzBytes) / 1024

	put("lz77.tokenize_ns_per_kb", "ns/KiB", perKB(kTokenize), share(kTokenize))
	put("lz77.probes_per_kb", "count/KiB", ratio(float64(k.hw.Probes), lzKB), "count pass, deterministic")
	put("lz77.candidates_per_kb", "count/KiB", ratio(float64(k.hw.Candidates), lzKB), "count pass, deterministic")
	put("lz77.bank_conflicts_per_kb", "count/KiB", ratio(float64(k.hw.BankConflicts), lzKB), "count pass, deterministic")
	put("lz77.cycles_per_kb", "cycles/KiB", ratio(float64(k.hw.Cycles), lzKB), "count pass, deterministic")
	put("deflate.dht_build_us", "us", meanNS(kDHT)/1e3, share(kDHT))
	put("deflate.dht_allocs", "count", ratio(float64(k.dhtAllocs), float64(k.dhtBuilds)), "count pass, per build")
	put("deflate.encode_ns_per_kb", "ns/KiB", perKB(kEncode), share(kEncode, kFraming))
	put("deflate.inflate_ns_per_kb", "ns/KiB", perKB(kInflate), share(kInflate))
	put("checksum.crc32_ns_per_kb", "ns/KiB", perKB(kCRC), share(kCRC))
	put("checksum.adler32_ns_per_kb", "ns/KiB", perKB(kAdler), share(kAdler))
	put("nx.submit_us", "us", meanNS(kSubmit)/1e3, "device path without the root")

	d0, d1 := tl.before, tl.after
	ops := float64(plain.s.ops)
	hits, misses := d1.mmu.Hits-d0.mmu.Hits, d1.mmu.Misses-d0.mmu.Misses
	put("nmmu.translate_ns", "ns", meanNS(kTranslate), share(kTranslate))
	put("nmmu.erat_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), "real devices, untraced phase")
	put("nmmu.faults_per_op", "count", ratio(float64(d1.mmu.Faults-d0.mmu.Faults), ops), "real devices, untraced phase")
	rejects := (d1.vas.CreditRejects + d1.vas.FIFORejects + d1.vas.InjectedRejects) -
		(d0.vas.CreditRejects + d0.vas.FIFORejects + d0.vas.InjectedRejects)
	put("vas.paste_round_ns", "ns", meanNS(kPaste), share(kPaste))
	put("vas.paste_rejects_per_op", "count", ratio(float64(rejects), ops), "real devices, untraced phase")
	put("vas.queue_wait_us", "us", ratio(d1.qwSum-d0.qwSum, float64(d1.qwCount-d0.qwCount)), "nx.queue_wait_us, untraced phase")
	put("topology.pick_ns", "ns", meanNS(kPick), share(kPick))
	put("topology.dispatch_skew", "x", skew(d0.dispatched, d1.dispatched), "max/mean dispatches per device")

	admitted := sumClass(d1.adm.Admitted) - sumClass(d0.adm.Admitted)
	shed := sumClass(d1.adm.Shed) - sumClass(d0.adm.Shed)
	put("admission.admit_ns", "ns", meanNS(kAdmit), share(kAdmit))
	put("admission.shed_ratio", "ratio", ratio(float64(shed), float64(admitted+shed)), "real gate, untraced phase")
	put("admission.queued_ratio", "ratio", ratio(float64(d1.admQueued-d0.admQueued), float64(admitted)), "real gate, untraced phase")
	rec := tl.info.rec
	if rec == nil {
		rec = tl.rec
	}
	put("flightrec.complete_ns", "ns", meanNS(kFlightrec), share(kFlightrec))
	put("flightrec.retained_ratio", "ratio", retainedRatio(rec), "tail-sampled share of digests")
	put("telemetry.observe_ns", "ns", meanNS(kObserve), share(kObserve))

	var covered int64
	for kk := kSubmit + 1; kk < numKinds; kk++ {
		covered += onPath[kk]
	}
	put("nxzip.root_us", "us", ratio(float64(rootNS), float64(rootN))/1e3, "call minus nx.submit")
	put("nxzip.residual_share", "ratio", ratio(float64(e2e-covered), float64(e2e)), "call time no layer span accounts for")
	put("nxzip.redispatches_per_op", "count", ratio(float64(plain.s.redispatches), ops), "untraced phase")
	put("nxzip.fallback_ratio", "ratio", ratio(float64(plain.s.degraded), ops), "untraced phase")
	wUS, rUS, speedup, note := tl.streamFigures(opCall, opCallN, opBytes)
	put("nxzip.stream_write_us", "us", wUS, note)
	put("nxzip.stream_read_us", "us", rUS, note)
	put("nxzip.parallel_speedup", "x", speedup, note)

	for i, st := range pipelineStages {
		name := "pipeline." + strings.ReplaceAll(st.String(), "-", "_") + "_cycles_per_kb"
		put(name, "cycles/KiB", ratio(float64(k.stageCycles[i]), float64(k.stageBytes)/1024), "count pass, modelled")
	}

	m0, m1 := plain.mem[0], plain.mem[1]
	put("go.gc_cycles_per_kop", "count", ratio(float64(m1.NumGC-m0.NumGC), ops/1000), "untraced phase")
	put("go.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, fmt.Sprintf("untraced phase, %.1f s", plain.wall.Seconds()))
	plainRate := ops / plain.wall.Seconds()
	tracedRate := float64(traced.s.ops) / traced.wall.Seconds()
	put("trace.overhead", "x", ratio(plainRate, tracedRate), fmt.Sprintf("untraced %.1f vs traced %.1f calls/s", plainRate, tracedRate))
	rows = append(rows, row{name: "request self time", unit: "ns", value: ratio(float64(selfReq), float64(n[kCall])), note: fmt.Sprintf("%d spans kept", allSpans)})

	r.Attempted = plain.s.ops + traced.s.ops
	r.Failed = plain.s.failed + traced.s.failed + tl.otherFailed
	r.Correct = r.Failed == 0
	return r, rows
}

// streamFigures reports StreamWriter Write and StreamReader Read latency
// and the ParallelWriter/StreamWriter MB/s ratio. Workloads that do not
// stream measure them off the path on a 2 MiB jsonlogs stream.
func (tl *ledgerRun) streamFigures(call, calls, nbytes [numOps]int64) (wUS, rUS, speedup float64, note string) {
	if calls[opStreamWrite] > 0 {
		rate := func(o opKind) float64 { return float64(nbytes[o]) / float64(call[o]) }
		return float64(call[opStreamWrite]) / float64(calls[opStreamWrite]) / 1e3,
			float64(call[opStreamRead]) / float64(calls[opStreamRead]) / 1e3,
			rate(opParallelWrite) / rate(opStreamWrite), "traced calls"
	}
	acc, workers := tl.info.acc, tl.info.workers
	src := corpus.Generate(corpus.JSONLogs, 2<<20, seedFor(tl.seed, 7))
	var out, pout bytes.Buffer
	start := time.Now()
	sw := acc.NewStreamWriter(&out)
	writes := 0
	for off := 0; off < len(src); off += streamIO {
		sw.Write(src[off : off+streamIO])
		writes++
	}
	sw.Close()
	tSW := time.Since(start)

	start = time.Now()
	pw := acc.NewParallelWriterChunk(&pout, nxzip.DefaultChunkSize, workers)
	for off := 0; off < len(src); off += streamIO {
		pw.Write(src[off : off+streamIO])
	}
	pw.Close()
	tPW := time.Since(start)

	buf := make([]byte, streamIO)
	sr := acc.NewStreamReader(bytes.NewReader(out.Bytes()), 2*len(src))
	start = time.Now()
	got, reads := 0, 0
	for {
		n, err := sr.Read(buf)
		got += n
		reads++
		if err != nil {
			break
		}
	}
	tSR := time.Since(start)
	if got != len(src) || stdGunzipEqual(out.Bytes(), src) != nil || stdGunzipEqual(pout.Bytes(), src) != nil {
		tl.otherFailed++
	}
	return us(tSW) / float64(writes), us(tSR) / float64(reads), float64(tSW) / float64(tPW),
		"off path: 2 MiB jsonlogs stream on this workload's node"
}

func sumClass(v [admission.ClassCount]int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// skew is max/mean of the per-device dispatch deltas (1 for one device).
func skew(a, b []int64) float64 {
	if len(b) < 2 {
		return 1
	}
	var tot, mx int64
	for i := range b {
		d := b[i] - a[i]
		tot += d
		mx = max(mx, d)
	}
	if tot == 0 {
		return 1
	}
	return float64(mx) / (float64(tot) / float64(len(b)))
}

// retainedRatio estimates the share of digests the tail sampler kept:
// exact while nothing has been evicted from the retained ring, otherwise
// from the record numbers the ring spans.
func retainedRatio(r *flightrec.Recorder) float64 {
	seq := r.Seq()
	held := r.RetainedRequests()
	switch {
	case seq == 0:
		return 0
	case len(held) < retainedRing:
		return float64(len(held)) / float64(seq)
	}
	return float64(len(held)-1) / float64(held[len(held)-1].Digest.Seq-held[0].Digest.Seq)
}

// retainedRing is the default size of the recorder's retained ring.
const retainedRing = 64

func printLedger(w io.Writer, name string, rows []row) {
	fmt.Fprintf(w, "ledger %s (layers timed from outside, through their exported functions)\n", name)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %14.4f %-10s %s\n", r.name, r.value, r.unit, r.note)
	}
}

// writeSpans writes every span of the traced phase as JSON lines, after a
// first line of run metadata.
func (tl *ledgerRun) writeSpans(dir, workload, meta string) (string, error) {
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, meta)
	var b []byte
	for ci, l := range tl.clients {
		for _, s := range l.spans {
			b = append(b[:0], `{"client":`...)
			b = strconv.AppendInt(b, int64(ci), 10)
			b = append(b, `,"req":`...)
			b = strconv.AppendUint(b, s.req, 10)
			b = append(b, `,"name":"`...)
			b = append(b, kindNames[s.kind]...)
			b = append(b, `","op":"`...)
			b = append(b, opNames[s.op]...)
			b = append(b, `","parent":`...)
			b = strconv.AppendInt(b, int64(s.parent), 10)
			b = append(b, `,"start_ns":`...)
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, s.end, 10)
			b = append(b, `,"bytes":`...)
			b = strconv.AppendInt(b, s.bytes, 10)
			b = append(b, `,"on_path":`...)
			b = strconv.AppendBool(b, s.onPath)
			b = append(b, "}\n"...)
			bw.Write(b)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
