package nx

import (
	"errors"
	"sync"
	"sync/atomic"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/faultinject"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/pipeline"
)

// EngineConfig assembles an engine model.
type EngineConfig struct {
	Pipeline pipeline.Config
	LZ       lz77.HWParams
	// Codecs advertises which codec families this engine implements.
	// The zero value means all of them, so existing configurations keep
	// serving everything; a restricted set makes the engine NACK
	// out-of-set requests with CCInvalidCRB, and the topology layer
	// routes around it.
	Codecs CodecSet
}

// P9Engine returns the POWER9 NX GZIP engine configuration.
func P9Engine() EngineConfig {
	return EngineConfig{Pipeline: pipeline.P9(), LZ: lz77.P9HWParams()}
}

// Z15Engine returns the z15 zEDC engine configuration.
func Z15Engine() EngineConfig {
	return EngineConfig{Pipeline: pipeline.Z15(), LZ: lz77.Z15HWParams()}
}

// Engine executes CRBs one at a time, like the silicon: requests from all
// windows serialize at the engine. Safe for concurrent ProcessInto calls
// (they queue on an internal mutex).
type Engine struct {
	cfg EngineConfig
	mmu *nmmu.MMU
	inj atomic.Pointer[faultinject.Injector]

	mu      sync.Mutex
	matcher *lz77.HWMatcher
	// Request-path scratch, reused across requests under mu — the
	// engine's fixed internal SRAM rather than per-request allocations.
	tokBuf []lz77.Token
	enc    deflate.StreamEncoder

	// accumulated counters
	requests    int64
	busyCycles  int64
	inBytes     int64
	outBytes    int64
	stageCycles pipeline.Breakdown // per-stage sums across all requests
	ccCounts    [ccCount]int64     // completions by CC
	lastLZ      lz77.HWStats
}

// NewEngine builds an engine bound to an MMU (nil disables translation,
// for bare functional use).
func NewEngine(cfg EngineConfig, mmu *nmmu.MMU) *Engine {
	return &Engine{cfg: cfg, mmu: mmu, matcher: lz77.NewHWMatcher(cfg.LZ)}
}

// Config returns the engine configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// SetInjector installs (or, with nil, removes) the fault injector
// consulted after each successful completion to force CSB error codes.
func (e *Engine) SetInjector(inj *faultinject.Injector) { e.inj.Store(inj) }

// injectCC flips a successful completion into an injected error CC:
// CRC mismatch (inline read-back verify failed), data check, or invalid
// CRB. The work was done — cycles stand — but the output is withheld,
// exactly as hardware suppresses the target store on a failed verify.
// Resume requests are exempt: hardware checkpoints suspend/resume state
// only on successful completion, but the model's session advances as it
// feeds, so an injected failure here would leave state the submitter
// cannot safely replay.
func (e *Engine) injectCC(crb *CRB, csb *CSB) {
	inj := e.inj.Load()
	if inj == nil || csb.CC != CCSuccess || crb.DecompState != nil {
		return
	}
	var cc CC
	switch {
	case inj.Decide(faultinject.CRCError):
		cc = CCCRCError
	case inj.Decide(faultinject.DataCheck):
		cc = CCDataCorrupt
	case inj.Decide(faultinject.InvalidCRB):
		cc = CCInvalidCRB
	default:
		return
	}
	csb.CC = cc
	csb.Detail = "injected " + cc.String()
	csb.Output = nil
	csb.TPBC = 0
}

// ProcessInto executes one request for the given address space, writing
// the completion into a caller-owned status block (reset first), so
// pooled submitters allocate nothing per request. With CRB.Target set
// the output lands in caller memory too. It never returns a Go error for
// data-plane problems — those are CSB completion codes, exactly as on
// hardware.
func (e *Engine) ProcessInto(pid nmmu.PID, crb *CRB, csb *CSB) {
	e.mu.Lock()
	defer e.mu.Unlock()

	csb.reset()

	// Capability gate before any work: a function code outside the
	// engine's advertised codec set is NACKed at CRB parse, exactly as
	// hardware rejects an unimplemented function code. No cycles charged
	// — the request never entered the pipeline.
	if need := crb.RequiredCodecs(); !e.cfg.Codecs.Supports(need) {
		csb.CC = CCInvalidCRB
		csb.Detail = "codec not supported: " + need.String() + " (engine serves " + e.cfg.Codecs.String() + ")"
		return
	}

	// Address translation first: the engine touches the source range, then
	// the target range. A fault suspends the job; software resolves it and
	// resubmits, and the engine restarts the request (P9 semantics).
	var translateCycles int64
	if e.mmu != nil {
		operands := []struct {
			dde *DDE
			va  uint64
			n   int
		}{
			{crb.SourceDDE, crb.SourceVA, len(crb.Input)},
			{crb.TargetDDE, crb.TargetVA, targetCap(crb)},
		}
		for _, op := range operands {
			var (
				rs  nmmu.RangeStats
				err error
			)
			switch {
			case op.dde != nil:
				rs, err = translateDDE(e.mmu, pid, *op.dde)
			case op.va != 0:
				rs, err = e.mmu.TranslateRangeStats(pid, op.va, op.n)
			default:
				continue
			}
			translateCycles += rs.Cycles
			csb.ERATHits += rs.Hits
			csb.ERATMisses += rs.Misses
			if fault := asFault(err); fault != nil {
				e.faultCSB(csb, fault, translateCycles)
				return
			} else if err != nil {
				csb.CC = CCInvalidCRB
				csb.Detail = err.Error()
				return
			}
		}
	}

	switch crb.Func {
	case FCCompressFHT, FCCompressDHT, FCCompressCannedDHT:
		e.compress(pid, crb, csb, translateCycles)
	case FCDecompress:
		if crb.DecompState != nil {
			e.decompressResume(crb, csb, translateCycles)
		} else {
			e.decompress(pid, crb, csb, translateCycles)
		}
	case FC842Compress, FCLZ4Compress:
		e.blockCompress(crb, csb, translateCycles, crb.Func.Codec())
	case FC842Decompress, FCLZ4Decompress:
		e.blockDecompress(crb, csb, translateCycles, crb.Func.Codec())
	case FCTranscode:
		e.transcode(pid, crb, csb, translateCycles)
	case FCMove:
		e.move(crb, csb, translateCycles)
	default:
		csb.CC = CCInvalidCRB
		csb.Detail = "unknown function code"
	}

	e.injectCC(crb, csb)

	if crb.SyncSubmit && e.cfg.Pipeline.SyncSetupCycles > 0 {
		// Synchronous-instruction dispatch replaces the queued setup cost.
		delta := e.cfg.Pipeline.SetupCycles - e.cfg.Pipeline.SyncSetupCycles
		if delta > 0 && csb.Cycles.Setup >= e.cfg.Pipeline.SetupCycles {
			csb.Cycles.Setup -= delta
			csb.Cycles.Total -= delta
		}
	}
	if crb.Chained && e.cfg.Pipeline.ChainSetupCycles > 0 {
		// Chained behind the previous envelope entry: descriptor advance,
		// not a fresh paste round trip.
		delta := e.cfg.Pipeline.SetupCycles - e.cfg.Pipeline.ChainSetupCycles
		if delta > 0 && csb.Cycles.Setup >= e.cfg.Pipeline.SetupCycles {
			csb.Cycles.Setup -= delta
			csb.Cycles.Total -= delta
		}
	}
	if crb.ChainedComplete && e.cfg.Pipeline.ChainCompleteCycles > 0 {
		// A later entry carries the envelope's interrupt/credit return;
		// this one only stores its CSB.
		delta := e.cfg.Pipeline.CompleteCycles - e.cfg.Pipeline.ChainCompleteCycles
		if delta > 0 && csb.Cycles.Complete >= e.cfg.Pipeline.CompleteCycles {
			csb.Cycles.Complete -= delta
			csb.Cycles.Total -= delta
		}
	}
	e.requests++
	e.busyCycles += csb.Cycles.Total
	e.inBytes += int64(csb.SPBC)
	e.outBytes += int64(csb.TPBC)
	e.accumStages(csb)
}

// accumStages folds one request's breakdown and completion code into the
// lifetime per-stage accounting. Called with e.mu held.
func (e *Engine) accumStages(csb *CSB) {
	b := &e.stageCycles
	b.Setup += csb.Cycles.Setup
	b.Translate += csb.Cycles.Translate
	b.DMAIn += csb.Cycles.DMAIn
	b.LZ += csb.Cycles.LZ
	b.DHTGen += csb.Cycles.DHTGen
	b.Encode += csb.Cycles.Encode
	b.Decode += csb.Cycles.Decode
	b.DMAOut += csb.Cycles.DMAOut
	b.Complete += csb.Cycles.Complete
	b.Total += csb.Cycles.Total
	if csb.CC >= 0 && csb.CC < ccCount {
		e.ccCounts[csb.CC]++
	}
}

func targetCap(crb *CRB) int {
	if crb.TargetCap > 0 {
		return crb.TargetCap
	}
	return 2*len(crb.Input) + 1024
}

func asFault(err error) *nmmu.Fault {
	if err == nil {
		// Early out before declaring the target: errors.As forces its
		// target to escape, which would cost an allocation on every
		// translation even when nothing faulted.
		return nil
	}
	var f *nmmu.Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

func (e *Engine) faultCSB(csb *CSB, f *nmmu.Fault, translateCycles int64) {
	csb.CC = CCTranslationFault
	csb.FaultVA = f.VA
	// A faulted attempt still consumed setup plus the translation work up
	// to the fault.
	csb.Cycles = pipeline.Breakdown{
		Setup:     e.cfg.Pipeline.SetupCycles,
		Translate: translateCycles,
		Complete:  e.cfg.Pipeline.CompleteCycles,
	}
	csb.Cycles.Total = csb.Cycles.Setup + csb.Cycles.Translate + csb.Cycles.Complete
	e.requests++
	e.busyCycles += csb.Cycles.Total
	e.accumStages(csb)
}

// compress runs the DEFLATE compression path: hardware LZ, table
// selection per function code, inline checksum, framing.
func (e *Engine) compress(pid nmmu.PID, crb *CRB, csb *CSB, translateCycles int64) {
	input := crb.Input
	if crb.NotFinal && crb.Wrap != WrapRaw {
		csb.CC = CCInvalidCRB
		csb.Detail = "stream segments must use raw wrap"
		return
	}
	var (
		tokens  []lz77.Token
		lzStats lz77.HWStats
	)
	if len(crb.History) > 0 {
		tokens, lzStats = e.matcher.TokenizeWithHistory(e.tokBuf[:0], crb.History, input)
	} else {
		tokens, lzStats = e.matcher.Tokenize(e.tokBuf[:0], input)
	}
	e.tokBuf = tokens // keep any growth for the next request
	e.lastLZ = lzStats
	csb.LZ = lzStats

	var (
		mode deflate.BlockMode
		dht  *deflate.DHT
	)
	switch crb.Func {
	case FCCompressFHT:
		mode = deflate.ModeFixed
	case FCCompressDHT:
		mode = deflate.ModeDynamic
		dht = e.sampleDHT(tokens, input)
	case FCCompressCannedDHT:
		mode = deflate.ModeDynamic
		dht = crb.DHT
		if dht == nil {
			csb.CC = CCInvalidCRB
			csb.Detail = "canned-DHT compression without a DHT"
			return
		}
	}

	// Frame inline on the output path, exactly as the hardware's wrap
	// function codes do on the target DMA stream: header, DEFLATE body,
	// trailer, all appended to one buffer. With CRB.Target set that
	// buffer is caller memory and the whole path allocates nothing.
	out := crb.Target[:0]
	if crb.Target == nil {
		out = make([]byte, 0, len(input)/2+128)
	}
	switch crb.Wrap {
	case WrapGzip:
		out = deflate.AppendGzipHeader(out)
	case WrapZlib:
		out = deflate.AppendZlibHeader(out)
	}
	out, err := e.enc.EncodeStream(out, tokens, input, mode, dht, !crb.NotFinal)
	if err != nil {
		csb.CC = CCInvalidCRB
		csb.Detail = err.Error()
		return
	}
	crc := checksum.Sum32(input)
	adler := checksum.SumAdler32(input)
	switch crb.Wrap {
	case WrapGzip:
		out = deflate.AppendGzipTrailer(out, crc, len(input))
	case WrapZlib:
		out = deflate.AppendZlibTrailer(out, adler)
	}
	if len(out) > targetCap(crb) {
		csb.CC = CCTargetSpace
		csb.SPBC = 0
		csb.TPBC = 0
		// The engine discovered the overflow while draining output: charge
		// a full pass.
		csb.Cycles = e.cfg.Pipeline.Compress(len(input), len(out), lzStats.Cycles, translateCycles, crb.Func == FCCompressDHT)
		return
	}

	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(input)
	csb.TPBC = len(out)
	csb.CRC32 = crc
	csb.Adler32 = adler
	// Only the generate-DHT function code pays table-build latency; canned
	// tables arrive with the CRB.
	csb.Cycles = e.cfg.Pipeline.Compress(len(input), len(out), lzStats.Cycles, translateCycles, crb.Func == FCCompressDHT)
}

// sampleDHT builds the single-pass dynamic table: frequencies are counted
// only over tokens covering the first DHTSampleBytes of input, then every
// symbol receives a +1 floor so the table is complete (the hardware
// requires a decodable-by-construction table because data after the sample
// may use any symbol).
func (e *Engine) sampleDHT(tokens []lz77.Token, input []byte) *deflate.DHT {
	sampleBytes := e.cfg.Pipeline.DHTSampleBytes
	covered := 0
	end := 0
	for i, t := range tokens {
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
	lf, df := deflate.CountFrequencies(tokens[:end])
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		// Frequencies are all positive; construction cannot fail. Fall
		// back to nil (generated-per-block) defensively.
		return nil
	}
	_ = input
	return dht
}

func (e *Engine) decompress(pid nmmu.PID, crb *CRB, csb *CSB, translateCycles int64) {
	var (
		out      []byte
		err      error
		consumed = len(crb.Input)
	)
	// The decoder stops as soon as output exceeds what the target buffer
	// can hold (or the caller's explicit budget, whichever is smaller):
	// the engine never materializes bytes it has nowhere to put, so a
	// decompression bomb costs one buffer's worth of work, not the bomb's.
	limit := crb.MaxOutput
	if tc := targetCap(crb); limit <= 0 || tc < limit {
		limit = tc
	}
	// Dst threads the caller-owned target buffer into the inflate loop so
	// a pooled decompression allocates nothing when the output fits.
	opts := deflate.InflateOptions{MaxOutput: limit, Dst: crb.Target}
	switch {
	case crb.Wrap == WrapGzip && crb.FirstMemberOnly:
		out, consumed, err = deflate.DecompressGzipTail(crb.Input, opts)
	case crb.Wrap == WrapGzip:
		out, err = deflate.DecompressGzip(crb.Input, opts)
	case crb.Wrap == WrapZlib:
		out, err = deflate.DecompressZlib(crb.Input, opts)
	default:
		out, err = deflate.Decompress(crb.Input, opts)
	}
	if err != nil {
		if errors.Is(err, deflate.ErrTooLarge) {
			// The output budget tripped mid-decode: target space, not
			// corruption — software enlarges the buffer (or rejects the
			// bomb) and resubmits.
			csb.CC = CCTargetSpace
		} else {
			csb.CC = CCDataCorrupt
		}
		csb.Detail = err.Error()
		// Detection cost: the engine read the input before tripping.
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	if len(out) > targetCap(crb) {
		csb.CC = CCTargetSpace
		csb.Cycles = e.cfg.Pipeline.Decompress(consumed, len(out), translateCycles)
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = consumed
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(out)
	csb.Adler32 = checksum.SumAdler32(out)
	csb.Cycles = e.cfg.Pipeline.Decompress(consumed, len(out), translateCycles)
}

// blockCompress runs any byte-aligned block codec (842, LZ4) through one
// generalized path: codec table lookup, compress, inline CRC over the
// input, and the per-codec cycle model — the ingest-lane multiplier
// scales how many input bytes the match pipeline consumes per cycle.
func (e *Engine) blockCompress(crb *CRB, csb *CSB, translateCycles int64, codec Codec) {
	bt := blockCodecs[codec]
	if bt.compress == nil {
		csb.CC = CCInvalidCRB
		csb.Detail = "no block compressor for codec " + codec.String()
		return
	}
	out := bt.compress(crb.Input)
	ingest := int64(len(crb.Input)/(e.cfg.LZ.InputWidth*bt.ingestLanes) + 1)
	cycles := e.cfg.Pipeline.Compress(len(crb.Input), len(out), ingest, translateCycles, false)
	if len(out) > targetCap(crb) {
		csb.CC = CCTargetSpace
		csb.Cycles = cycles
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(crb.Input)
	csb.Cycles = cycles
}

// blockDecompress is the matching generalized decompress path.
func (e *Engine) blockDecompress(crb *CRB, csb *CSB, translateCycles int64, codec Codec) {
	bt := blockCodecs[codec]
	if bt.decompress == nil {
		csb.CC = CCInvalidCRB
		csb.Detail = "no block decompressor for codec " + codec.String()
		return
	}
	out, err := bt.decompress(crb.Input, crb.MaxOutput)
	if err != nil {
		csb.CC = CCDataCorrupt
		csb.Detail = err.Error()
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	if len(out) > targetCap(crb) {
		csb.CC = CCTargetSpace
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(out)
	csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
}

// transcode decodes CRB.SourceCodec input and re-encodes the plaintext
// as CRB.TargetCodec without leaving the engine — the paper's
// recompression pipeline (e.g. LZ4 ingest → DEFLATE at rest) as one
// request. Setup/complete are paid once; the decode pass's translate,
// DMA-in and decode cycles fold into the encode pass's breakdown. The
// intermediate plaintext never crosses the bus, so there is no DMA-out
// charge for stage one.
func (e *Engine) transcode(pid nmmu.PID, crb *CRB, csb *CSB, translateCycles int64) {
	if crb.SourceCodec == crb.TargetCodec {
		csb.CC = CCInvalidCRB
		csb.Detail = "transcode with identical source and target codec " + crb.SourceCodec.String()
		return
	}
	limit := crb.MaxOutput
	if limit <= 0 {
		limit = 1 << 30
	}
	var (
		plain []byte
		err   error
	)
	if crb.SourceCodec == CodecDeflate {
		opts := deflate.InflateOptions{MaxOutput: limit}
		switch crb.Wrap {
		case WrapGzip:
			plain, err = deflate.DecompressGzip(crb.Input, opts)
		case WrapZlib:
			plain, err = deflate.DecompressZlib(crb.Input, opts)
		default:
			plain, err = deflate.Decompress(crb.Input, opts)
		}
	} else {
		plain, err = blockCodecs[crb.SourceCodec].decompress(crb.Input, limit)
	}
	if err != nil {
		csb.CC = CCDataCorrupt
		csb.Detail = err.Error()
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	dec := e.cfg.Pipeline.Decompress(len(crb.Input), len(plain), translateCycles)

	// Re-encode through the regular compress paths so wrap, checksum and
	// target-space handling are not duplicated; translate was already
	// charged on the decode pass.
	inner := CRB{
		Func:      compressFunc(crb.TargetCodec),
		Wrap:      crb.Wrap,
		Input:     plain,
		TargetCap: crb.TargetCap,
		Target:    crb.Target,
	}
	if crb.TargetCodec == CodecDeflate {
		e.compress(pid, &inner, csb, 0)
	} else {
		e.blockCompress(&inner, csb, 0, crb.TargetCodec)
	}
	csb.Cycles.Translate += dec.Translate
	csb.Cycles.DMAIn += dec.DMAIn
	csb.Cycles.Decode += dec.Decode
	csb.Cycles.Total += dec.Translate + dec.DMAIn + dec.Decode
	if csb.CC == CCSuccess {
		// Source-processed counts the codec-side input, not the
		// intermediate plaintext.
		csb.SPBC = len(crb.Input)
	}
}

// move is the checksum/copy offload: data streams through the DMA path
// untouched while the checksum units run. Useful on its own (CRC offload)
// and as the engine's data-movement baseline.
func (e *Engine) move(crb *CRB, csb *CSB, translateCycles int64) {
	if len(crb.Input) > targetCap(crb) {
		csb.CC = CCTargetSpace
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	out := append([]byte{}, crb.Input...)
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(crb.Input)
	csb.Adler32 = checksum.SumAdler32(crb.Input)
	// Pure data movement: bounded by the DMA width on both sides.
	b := pipeline.Breakdown{
		Setup:     e.cfg.Pipeline.SetupCycles,
		Translate: translateCycles,
		DMAIn:     int64(len(crb.Input)+e.cfg.Pipeline.DMABytesPerCycle-1) / int64(e.cfg.Pipeline.DMABytesPerCycle),
		Complete:  e.cfg.Pipeline.CompleteCycles,
	}
	b.DMAOut = b.DMAIn
	stage := b.DMAIn
	if b.Translate > stage {
		stage = b.Translate
	}
	b.Total = b.Setup + stage + b.Complete
	csb.Cycles = b
}

// Counters is the engine's lifetime accounting.
type Counters struct {
	Requests   int64
	BusyCycles int64
	InBytes    int64
	OutBytes   int64
	// StageCycles sums each pipeline stage's cycles across every request
	// this engine ran (Total included, so idle = elapsed - Total).
	StageCycles pipeline.Breakdown
	// CCCounts is the number of completions per CC code, indexed by CC.
	CCCounts [ccCount]int64
	LastLZ   lz77.HWStats
}

// Counters returns a snapshot of lifetime counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Counters{
		Requests:    e.requests,
		BusyCycles:  e.busyCycles,
		InBytes:     e.inBytes,
		OutBytes:    e.outBytes,
		StageCycles: e.stageCycles,
		CCCounts:    e.ccCounts,
		LastLZ:      e.lastLZ,
	}
}
