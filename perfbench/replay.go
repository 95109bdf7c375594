package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/flightrec"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
	"nxzip/internal/vas"
)

// clientLedger records one client's spans in the traced phase and replays
// every public call through the exported functions of each internal layer
// it crosses, one child span per layer call. Layers are timed from the
// outside: each replay runs on the call's own input right after the call.
type clientLedger struct {
	cl   *client
	run  *ledgerRun
	info *layerInfo

	spans    []span
	cur      int32 // open request span, -1 between requests
	req      uint64
	op       opKind
	counting bool // count pass: gather the deterministic counters

	// One standalone instance per layer.
	matcher *lz77.HWMatcher
	toks    []lz77.Token
	sample  int // DHT sample bytes of the engine model
	enc     deflate.StreamEncoder
	out     []byte
	mmu     *nmmu.MMU
	mapped  [2]int // bytes mapped in the source and target regions
	sb      *vas.Switchboard
	win     int
	vcrb    vas.CRB
	topo    *topology.Context
	tenant  uint64
	hLat    *telemetry.Histogram
	hQueue  *telemetry.Histogram
	dev     *nx.Device
	nxctx   *nx.Context
	submits int

	// Stream mirrors: the writer or reader being shadowed.
	data    []byte // plaintext (writers) or compressed input (readers)
	pending int    // bytes the mirrored writer holds
	doneOff int    // bytes of data already submitted
	bodies  []byte // StreamWriter segment bodies replayed so far
	outSeen int    // Writer output bytes already matched
	rd      readMirror

	// Deterministic counters, taken from the count pass.
	hw        lz77.HWStats
	lzBytes   int64
	dhtAllocs uint64
	dhtBuilds int64
}

// readMirror follows a StreamReader's input chunking and resume state.
type readMirror struct {
	inbuf     []byte
	pos       int
	exhausted bool
	header    bool
	avail     int
	sess      *deflate.Session
	state     *nx.DecompState
}

const (
	replayPID    nmmu.PID = 1
	srcRegion             = uint64(1) << 40
	dstRegion             = uint64(2) << 40
	renewSubmits          = 4096 // nx.Context.Compress maps fresh buffers per call
)

var deflateOnly = nx.Codecs(nx.CodecDeflate)

func newClientLedger(run *ledgerRun, cl *client) *clientLedger {
	info := run.info
	l := &clientLedger{cl: cl, run: run, info: info, cur: -1, tenant: uint64(cl.id + 1)}
	l.matcher = lz77.NewHWMatcher(info.device.Engine.LZ)
	l.sample = info.device.Engine.Pipeline.DHTSampleBytes
	l.mmu = nmmu.New(info.device.MMU)
	l.mmu.CreateSpace(replayPID)
	l.sb = vas.New(info.device.VAS)
	l.win = l.sb.OpenSendWindow(replayPID)
	l.topo = topology.New(info.shape, nil).OpenContext(replayPID)
	reg := telemetry.NewRegistry()
	l.hLat = reg.HistogramVec(nxzip.TenantLatencyMetric).With("t1/interactive/ok")
	l.hQueue = reg.HistogramVec("nxzip.tenant.queue_wait_us").With("t1")
	l.renewDevice()
	return l
}

// renewDevice opens a fresh replay device. nx.Context.Compress maps new
// buffers on every call, so a long traced phase renews the device to keep
// the page tables bounded.
func (l *clientLedger) renewDevice() {
	l.dev = nx.NewDevice(l.info.device)
	l.dev.StartTrace(l.run.stages)
	l.nxctx = l.dev.OpenContext(replayPID)
	l.submits = 0
}

// ---- spans

func (l *clientLedger) now() int64 { return int64(time.Since(l.run.epoch)) }

func (l *clientLedger) at(t time.Time) int64 { return int64(t.Sub(l.run.epoch)) }

func (l *clientLedger) open(k spanKind, n int, onPath bool) int32 {
	l.spans = append(l.spans, span{start: l.now(), req: l.req, parent: l.cur, bytes: int64(n), kind: k, op: l.op, onPath: onPath})
	return int32(len(l.spans) - 1)
}

func (l *clientLedger) close(i int32) { l.spans[i].end = l.now() }

// beginReq opens the per-request span at the call's start and records the
// call itself as its first child.
func (l *clientLedger) beginReq(op opKind, t0, t1 time.Time, n int) {
	l.req++
	l.op = op
	l.spans = append(l.spans, span{start: l.at(t0), req: l.req, parent: -1, bytes: int64(n), kind: kRequest, op: op, onPath: true})
	l.cur = int32(len(l.spans) - 1)
	l.spans = append(l.spans, span{start: l.at(t0), end: l.at(t1), req: l.req, parent: l.cur, bytes: int64(n), kind: kCall, op: op, onPath: true})
}

func (l *clientLedger) endReq() {
	l.spans[l.cur].end = l.now()
	l.cur = -1
}

// ---- per-layer replays

// admit replays the admission gate; on workloads whose path has no gate
// it still runs, off the path, so the layer's cost is measured everywhere.
func (l *clientLedger) admit(onPath bool) {
	i := l.open(kAdmit, 0, onPath)
	if t, _, err := l.run.adm.Admit(admission.AdmitRequest{Tenant: l.tenant}); err == nil {
		t.Release()
	}
	l.close(i)
}

func (l *clientLedger) pick() {
	i := l.open(kPick, 0, true)
	if d, err := l.topo.PickIndexCodec(deflateOnly); err == nil {
		l.topo.AcquireIndex(d)
		l.topo.ReleaseIndex(d, nil)
	}
	l.close(i)
}

// translate replays the engine's NMMU walk over the source and target
// extents of one request.
func (l *clientLedger) translate(srcLen, dstLen int) {
	l.ensureMapped(0, srcRegion, srcLen)
	l.ensureMapped(1, dstRegion, dstLen)
	i := l.open(kTranslate, 0, true)
	l.mmu.TranslateRangeStats(replayPID, srcRegion, srcLen)
	l.mmu.TranslateRangeStats(replayPID, dstRegion, dstLen)
	l.close(i)
}

func (l *clientLedger) ensureMapped(r int, base uint64, n int) {
	if n <= l.mapped[r] {
		return
	}
	page := l.info.device.MMU.PageSize
	grow := (n - l.mapped[r] + page - 1) / page * page
	l.mmu.Map(replayPID, base+uint64(l.mapped[r]), grow, true)
	l.mapped[r] += grow
}

// paste replays one switchboard round trip: paste, dequeue, complete.
func (l *clientLedger) paste() {
	i := l.open(kPaste, 0, true)
	if l.sb.Paste(l.win, &l.vcrb) == nil {
		if c := l.sb.Dequeue(); c != nil {
			l.sb.Complete(c)
		}
	}
	l.close(i)
}

// complete replays the request's terminal record: the flight-recorder
// digest (off the path where the node has no recorder) and, for root
// calls, the tenant-plane observations.
func (l *clientLedger) complete(root bool, in, out int, totalUS float64) {
	i := l.open(kFlightrec, 0, root && l.info.recorder)
	d := telemetry.Digest{
		Req: l.req, Op: "compress-dht", Codec: "deflate", Device: "chip0",
		Tenant: l.tenant, Priority: "interactive", InBytes: in, OutBytes: out,
		TotalUS: totalUS, Attempts: 1,
	}
	l.run.rec.Complete(&d)
	l.close(i)
	if root {
		i = l.open(kObserve, 0, true)
		l.hLat.ObserveExemplar(totalUS, l.req)
		l.hQueue.ObserveExemplar(0, l.req)
		l.close(i)
	}
}

// engineCompress replays the engine's compression steps in order: LZ77
// tokenization, the sampled dynamic Huffman table, the stream encoder,
// both checksums and, with gzip framing, the header and trailer. The
// result must equal the device's output byte for byte.
func (l *clientLedger) engineCompress(src, history []byte, final, gzip bool) []byte {
	i := l.open(kTokenize, len(src), true)
	var hw lz77.HWStats
	if len(history) > 0 {
		l.toks, hw = l.matcher.TokenizeWithHistory(l.toks[:0], history, src)
	} else {
		l.toks, hw = l.matcher.Tokenize(l.toks[:0], src)
	}
	l.close(i)

	var ms [2]runtime.MemStats
	if l.counting {
		addHW(&l.hw, hw)
		l.lzBytes += int64(len(src))
		runtime.ReadMemStats(&ms[0])
	}
	i = l.open(kDHT, len(src), true)
	dht := sampleDHT(l.toks, l.sample)
	l.close(i)
	if l.counting {
		runtime.ReadMemStats(&ms[1])
		l.dhtAllocs += ms[1].Mallocs - ms[0].Mallocs
		l.dhtBuilds++
	}

	out := l.out[:0]
	if gzip {
		i = l.open(kFraming, 0, true)
		out = deflate.AppendGzipHeader(out)
		l.close(i)
	}
	i = l.open(kEncode, len(src), true)
	out, err := l.enc.EncodeStream(out, l.toks, src, deflate.ModeDynamic, dht, final)
	l.close(i)
	if err != nil {
		l.cl.fail("replay encode: %v", err)
	}
	i = l.open(kCRC, len(src), true)
	crc := checksum.Sum32(src)
	l.close(i)
	i = l.open(kAdler, len(src), true)
	checksum.SumAdler32(src)
	l.close(i)
	if gzip {
		i = l.open(kFraming, 0, true)
		out = deflate.AppendGzipTrailer(out, crc, len(src))
		l.close(i)
	}
	l.out = out
	return out
}

// sampleDHT builds the table the engine generates for FCCompressDHT:
// frequencies over the tokens covering the first sampleBytes of input,
// every symbol floored at one.
func sampleDHT(toks []lz77.Token, sampleBytes int) *deflate.DHT {
	covered, end := 0, 0
	for i, t := range toks {
		if covered >= sampleBytes {
			break
		}
		if t.IsMatch() {
			covered += t.Length()
		} else {
			covered++
		}
		end = i + 1
	}
	lf, df := deflate.CountFrequencies(toks[:end])
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		return nil
	}
	return dht
}

func addHW(dst *lz77.HWStats, s lz77.HWStats) {
	dst.Cycles += s.Cycles
	dst.Beats += s.Beats
	dst.BankConflicts += s.BankConflicts
	dst.Probes += s.Probes
	dst.Candidates += s.Candidates
	dst.Matches += s.Matches
	dst.Literals += s.Literals
}

func (l *clientLedger) submitted() {
	if l.submits++; l.submits >= renewSubmits && !l.counting {
		l.renewDevice()
	}
}

// rootCompress replays a root compression (one-shot or Into) and checks
// that the layer-by-layer bytes equal the call's output.
func (l *clientLedger) rootCompress(src, real []byte) {
	l.admit(l.info.admission)
	l.pick()
	l.translate(len(src), 2*len(src)+1024)
	l.paste()
	if out := l.engineCompress(src, nil, true, true); !bytes.Equal(out, real) {
		l.cl.fail("ledger: layer replay of a %d-byte compress differs from the call's output", len(src))
	}
	i := l.open(kSubmit, len(src), false)
	l.nxctx.Compress(src, nx.FCCompressDHT, nx.WrapGzip, true)
	l.close(i)
	l.submitted()
}

// ---- entry points from the workloads (all nil-safe)

func (l *clientLedger) compress(t0, t1 time.Time, src, real []byte, op opKind) {
	if l == nil {
		return
	}
	l.beginReq(op, t0, t1, len(src))
	l.rootCompress(src, real)
	l.complete(true, len(src), len(real), us(t1.Sub(t0)))
	l.endReq()
}

func (l *clientLedger) decompress(t0, t1 time.Time, gz, plain []byte, op opKind) {
	if l == nil {
		return
	}
	l.beginReq(op, t0, t1, len(plain))
	maxOut := 256 * len(gz)
	if maxOut < 1<<20 {
		maxOut = 1 << 20
	}
	l.admit(l.info.admission)
	l.pick()
	l.translate(len(gz), maxOut)
	l.paste()
	i := l.open(kInflate, len(plain), true)
	out, err := deflate.DecompressGzip(gz, deflate.InflateOptions{MaxOutput: maxOut, Dst: l.out[:0]})
	l.close(i)
	if err != nil || !bytes.Equal(out, plain) {
		l.cl.fail("ledger: layer replay of a %d-byte decompress differs from the call's output", len(gz))
	}
	l.out = out
	i = l.open(kCRC, len(out), true)
	checksum.Sum32(out)
	l.close(i)
	i = l.open(kAdler, len(out), true)
	checksum.SumAdler32(out)
	l.close(i)
	i = l.open(kSubmit, len(plain), false)
	l.nxctx.Decompress(gz, nx.WrapGzip, maxOut, true)
	l.close(i)
	l.submitted()
	l.complete(true, len(gz), len(plain), us(t1.Sub(t0)))
	l.endReq()
}

func (l *clientLedger) batch(t0, t1 time.Time, reqs []*nxzip.BatchRequest) {
	if l == nil {
		return
	}
	n := 0
	groups := map[int]bool{}
	for _, q := range reqs {
		n += len(q.Src)
		groups[q.Device] = true
	}
	l.beginReq(opBatch, t0, t1, n)
	// One paste per device group carries the whole envelope.
	for range groups {
		l.paste()
	}
	for _, q := range reqs {
		l.admit(l.info.admission)
		l.pick()
		l.translate(len(q.Src), 2*len(q.Src)+1024)
		if out := l.engineCompress(q.Src, nil, true, true); !bytes.Equal(out, q.Out) {
			l.cl.fail("ledger: layer replay of a batch entry differs from its output")
		}
		i := l.open(kSubmit, len(q.Src), false)
		l.nxctx.Compress(q.Src, nx.FCCompressDHT, nx.WrapGzip, true)
		l.close(i)
		l.submitted()
		l.complete(true, len(q.Src), len(q.Out), us(t1.Sub(t0)))
	}
	l.endReq()
}

// streamBegin resets the mirror for a new stream object over data.
func (l *clientLedger) streamBegin(op opKind, data []byte) {
	if l == nil {
		return
	}
	l.op = op
	l.data = data
	l.pending, l.doneOff, l.outSeen = 0, 0, 0
	l.bodies = l.bodies[:0]
	l.rd = readMirror{}
	if op == opStreamRead {
		l.rd.sess = deflate.NewSession(deflate.InflateOptions{MaxOutput: 2 * streamSize})
		l.rd.state = nx.NewDecompState(2 * streamSize)
	}
}

// streamWrite records one Write; when it completes a chunk, the chunk's
// submission is replayed inside the Write's request span.
func (l *clientLedger) streamWrite(t0, t1 time.Time, op opKind, n int, out []byte) {
	if l == nil {
		return
	}
	l.beginReq(op, t0, t1, n)
	l.pending += n
	for l.pending >= nxzip.DefaultChunkSize && op != opParallelWrite {
		l.replayChunk(op, l.data[l.doneOff:l.doneOff+nxzip.DefaultChunkSize], false, out)
		l.pending -= nxzip.DefaultChunkSize
	}
	l.endReq()
}

func (l *clientLedger) streamClose(t0, t1 time.Time, op opKind, out []byte) {
	if l == nil {
		return
	}
	l.beginReq(op, t0, t1, 0)
	switch op {
	case opStreamWrite:
		l.replayChunk(op, l.data[l.doneOff:], true, out)
		l.checkStreamWriter(out)
	case opWriterWrite:
		if l.pending > 0 {
			l.replayChunk(op, l.data[l.doneOff:], true, out)
		}
	}
	l.endReq()
}

// replayChunk replays one chunk submission of a stream writer. A
// StreamWriter segment carries its history window and bypasses the root
// (no admission, pick, translation or tenant record); a Writer member is
// a full root CompressGzip.
func (l *clientLedger) replayChunk(op opKind, chunk []byte, final bool, out []byte) {
	off := l.doneOff
	l.doneOff += len(chunk)
	if op == opWriterWrite {
		member := out[l.outSeen:]
		l.rootCompress(chunk, member)
		l.outSeen = len(out)
		l.complete(true, len(chunk), len(member), 0)
		return
	}
	history := l.data[max(0, off-lz77.WindowSize):off]
	l.admit(false)
	l.paste()
	l.bodies = append(l.bodies, l.engineCompress(chunk, history, final, false)...)
	i := l.open(kCRC, len(chunk), true) // the writer's running gzip CRC
	checksum.Sum32(chunk)
	l.close(i)
	i = l.open(kSubmit, len(chunk), false)
	l.nxctx.Submit(&nx.CRB{Func: nx.FCCompressDHT, Wrap: nx.WrapRaw, Input: chunk, History: history, NotFinal: !final})
	l.close(i)
	l.submitted()
	l.complete(false, len(chunk), 0, 0)
}

// checkStreamWriter compares the concatenated segment replays, framed
// as the StreamWriter frames them, with its output.
func (l *clientLedger) checkStreamWriter(out []byte) {
	const hdr, trl = 10, 8
	ok := len(out) == hdr+len(l.bodies)+trl && bytes.Equal(out[hdr:hdr+len(l.bodies)], l.bodies) &&
		binary.LittleEndian.Uint32(out[len(out)-8:]) == checksum.Sum32(l.data) &&
		binary.LittleEndian.Uint32(out[len(out)-4:]) == uint32(len(l.data))
	if !ok {
		l.cl.fail("ledger: StreamWriter segment replays do not reassemble its output")
	}
}

// streamRead records one Read; while the mirrored reader has no decoded
// bytes left, the Read must have refilled, so the refill is replayed.
func (l *clientLedger) streamRead(t0, t1 time.Time, op opKind, n int) {
	if l == nil {
		return
	}
	l.beginReq(op, t0, t1, n)
	if op == opStreamRead {
		for l.rd.avail == 0 && !l.rd.sess.Done() {
			if !l.replayFill() {
				break
			}
		}
		l.rd.avail -= n
	}
	l.endReq()
}

// replayFill mirrors StreamReader.fill: top up DefaultReadChunk bytes of
// input, strip the gzip header once, and feed everything to the resume
// state. It reports whether the mirror can continue.
func (l *clientLedger) replayFill() bool {
	rd := &l.rd
	if !rd.exhausted {
		n := min(nxzip.DefaultReadChunk, len(l.data)-rd.pos)
		rd.inbuf = append(rd.inbuf, l.data[rd.pos:rd.pos+n]...)
		rd.pos += n
		rd.exhausted = n < nxzip.DefaultReadChunk
	}
	if !rd.header {
		h, err := deflate.ParseGzipHeader(rd.inbuf)
		if err != nil {
			return !rd.exhausted
		}
		rd.inbuf = rd.inbuf[h:]
		rd.header = true
	}
	chunk := rd.inbuf
	rd.inbuf = nil
	l.paste()
	i := l.open(kInflate, 0, true)
	out, err := rd.sess.Feed(chunk, rd.exhausted)
	l.close(i)
	l.spans[i].bytes = int64(len(out))
	if err != nil {
		l.cl.fail("ledger: StreamReader inflate replay: %v", err)
		return false
	}
	i = l.open(kCRC, len(out), true)
	checksum.Sum32(out)
	l.close(i)
	i = l.open(kSubmit, len(out), false)
	l.nxctx.Submit(&nx.CRB{Func: nx.FCDecompress, Wrap: nx.WrapRaw, Input: chunk, DecompState: rd.state, NotFinal: !rd.exhausted})
	l.close(i)
	l.submitted()
	l.admit(false)
	l.complete(false, len(chunk), len(out), 0)
	rd.avail += len(out)
	return true
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sharedReplays are the layer instances a real node shares between its
// clients: one admission gate and one flight recorder.
func newSharedReplays(info *layerInfo) (*admission.Controller, *flightrec.Recorder) {
	cfg := admission.DefaultConfig()
	if info.adm != nil {
		cfg = info.adm.Config()
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = len(info.devices) * info.device.VAS.FIFODepth / 4
	}
	return admission.NewController(cfg, nil, nil), flightrec.New(flightrec.Options{})
}
