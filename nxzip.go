// Package nxzip is a faithful, fully self-contained reproduction of the
// IBM POWER9 / z15 on-chip data compression accelerator (Abali et al.,
// "Data compression accelerator on IBM POWER9 and z15 processors", ISCA
// 2020) as a Go library.
//
// The accelerator is modelled functionally and cycle-approximately: every
// request produces real DEFLATE/gzip/zlib (or 842) bytes — interoperable
// with zlib, gzip and Go's compress/* packages — using the hardware's
// algorithmic choices (banked single-probe LZ77 match search, single-pass
// sampled dynamic-Huffman tables, inline CRC/Adler checksums), and every
// request is accounted in engine cycles through a documented pipeline
// model (request setup, NMMU address translation, stage line rates,
// completion). The system integration the paper emphasizes is modelled
// too: VAS send windows with paste/credit semantics, a shared receive
// FIFO, and the translation-fault → touch → resubmit protocol.
//
// Quick start:
//
//	acc := nxzip.Open(nxzip.P9())
//	defer acc.Close()
//	gz, m, err := acc.CompressGzip(data)      // valid gzip bytes
//	plain, _, err := acc.DecompressGzip(gz)   // or feed gz to gunzip
//	fmt.Println(m.Ratio, m.Throughput(), m.DeviceTime)
//
// The software baseline the paper compares against is also included:
//
//	gz, err := nxzip.SoftwareGzip(data, 6)    // zlib-equivalent levels 1..9
package nxzip

import (
	"fmt"
	"sync/atomic"
	"time"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/pipeline"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
)

// Config selects and tunes an accelerator model.
type Config struct {
	// Device is the underlying device configuration. Use P9() / Z15() for
	// the shipped configurations.
	Device nx.DeviceConfig
	// TableMode selects the Huffman strategy for CompressGzip and the
	// Writer: TableDynamic (default, engine-generated), TableFixed, or
	// TableCanned (install a table with Accelerator.TrainTable).
	TableMode TableMode
}

// TableMode selects the engine's Huffman table strategy.
type TableMode int

const (
	// TableDynamic builds a table per request from an input sample
	// (single-pass DHT, the accelerator's flagship mode).
	TableDynamic TableMode = iota
	// TableFixed uses the DEFLATE static table (lowest latency).
	TableFixed
	// TableCanned uses the table installed with Accelerator.TrainTable:
	// no per-request generation latency, ratio close to dynamic when the
	// data matches the training sample (experiment E11).
	TableCanned
)

// P9 returns the POWER9 NX GZIP configuration (~8 GB/s compression).
func P9() Config { return Config{Device: nx.P9Device()} }

// Z15 returns the z15 Integrated Accelerator for zEDC configuration
// (double the POWER9 rate).
func Z15() Config { return Config{Device: nx.Z15Device()} }

// Metrics reports the device-model accounting for one operation.
type Metrics struct {
	// InBytes / OutBytes are the source/target processed byte counts
	// (the CSB's SPBC/TPBC).
	InBytes  int
	OutBytes int
	// Ratio is input/output for compression, output/input for
	// decompression (bigger is better in both directions).
	Ratio float64
	// DeviceCycles is the total engine-cycle cost, including faulted
	// attempts; DeviceTime is the same at the engine clock.
	DeviceCycles int64
	DeviceTime   time.Duration
	// Faults counts translation-fault resubmissions.
	Faults int
	// PasteRejects counts VAS paste bounces (credit exhaustion, FIFO
	// full, injected rejects) absorbed while submitting.
	PasteRejects int
	// BackoffWaits counts the exponential-backoff sleeps taken while the
	// paste kept bouncing with nothing to drain; BackoffTime is their
	// wall-clock sum. Non-zero values mean the device was saturated (or
	// its window wedged) when this request arrived.
	BackoffWaits int
	BackoffTime  time.Duration
	// WastedCycles is the engine-cycle cost of work that did not produce
	// the result: faulted attempts plus backoff converted at the engine
	// clock. Included in DeviceCycles.
	WastedCycles int64
	// QueueWait is the request's receive-FIFO residency (paste accept to
	// engine dequeue) for the winning attempt — the queueing component of
	// latency, as distinct from the engine's DeviceTime.
	QueueWait time.Duration
	// CRC32 and Adler32 are computed inline over the plaintext.
	CRC32   uint32
	Adler32 uint32
	// Degraded is set when the result was produced by the software
	// fallback path because no healthy device could complete the request.
	Degraded bool
	// Redispatches counts device-attempt failures absorbed by re-dispatch
	// to another device (0 on the common first-try-success path).
	Redispatches int
}

// Throughput returns the effective device rate in bytes/second for the
// operation's uncompressed side.
func (m *Metrics) Throughput() float64 {
	if m.DeviceTime <= 0 {
		return 0
	}
	n := m.InBytes
	if m.OutBytes > n {
		n = m.OutBytes
	}
	return float64(n) / m.DeviceTime.Seconds()
}

// add accumulates o into m: byte counts, device cost, re-dispatches and
// the Degraded flag — a stream's running Stats, or a request's ledger of
// failed attempts. Ratio, checksums and QueueWait describe one request
// and are left alone.
func (m *Metrics) add(o *Metrics) {
	m.InBytes += o.InBytes
	m.OutBytes += o.OutBytes
	m.DeviceCycles += o.DeviceCycles
	m.DeviceTime += o.DeviceTime
	m.Faults += o.Faults
	m.PasteRejects += o.PasteRejects
	m.BackoffWaits += o.BackoffWaits
	m.BackoffTime += o.BackoffTime
	m.WastedCycles += o.WastedCycles
	m.Redispatches += o.Redispatches
	m.Degraded = m.Degraded || o.Degraded
}

// Accelerator is an open handle bound to one process context — since the
// topology refactor, a *view over a node*: Open builds a one-device node
// behind the scenes, and Node.View returns the same type over a
// multi-device pool, so every method here transparently routes requests
// through the node's dispatch policy. Compression and decompression
// methods are safe for concurrent use from any number of goroutines:
// requests queue at each device's shared receive FIFO and serialize per
// engine exactly as they do on the silicon (configure
// Config.Device.Engines for devices with more than one engine behind the
// queue). TrainTable is setup-time configuration — call it before
// concurrent use begins. Writer/Reader/StreamWriter/StreamReader values
// are single-stream objects (one goroutine each), while any number of
// them may run concurrently on one Accelerator; ParallelWriter and
// Reader.Workers parallelize within a single stream — across the node's
// devices when there are several.
type Accelerator struct {
	cfg    Config
	root   *Node // owning node (flight recorder lives there)
	node   *topology.Node
	nctx   *topology.Context
	dev    *nx.Device  // primary device (node device 0), for compat accessors
	ctx    *nx.Context // primary context (nctx.Primary())
	canned *deflate.DHT
	met    *accMetrics
	closed atomic.Bool
	// class is this view's admission priority (admission.Class), set by
	// SetPriority. Zero value is Interactive.
	class atomic.Int32
	// tplane is this view's pre-resolved handle matrix into the tenant
	// accounting plane (tenant.go); nil when the node disables it.
	tplane *tenantPlane
}

// accMetrics holds the host-side (stream-layer) instruments, registered
// in the node's registry so one snapshot covers the whole stack.
type accMetrics struct {
	writerMembers  *telemetry.Counter
	readerMembers  *telemetry.Counter
	streamSegments *telemetry.Counter
	parallelChunks *telemetry.Counter
	reorderDepth   *telemetry.Gauge // in-flight reorder-queue entries; Max = high-water
	fallbacks      *telemetry.Counter
	redispatches   *telemetry.Counter

	// codecFallbacks splits fallbacks by codec family
	// (nxzip.codec.fallbacks{deflate|842|lz4}); the aggregate
	// nxzip.fallbacks stays untouched — the SLO fallback-ratio rule
	// reads it by exact name.
	codecFallbacks [nx.CodecCount]*telemetry.Counter
}

// fallback counts one software fallback: the aggregate plus every codec
// the degraded request required.
func (m *accMetrics) fallback(need nx.CodecSet) {
	m.fallbacks.Inc()
	for _, c := range nx.AllCodecs() {
		if need.Has(c) {
			m.codecFallbacks[c].Inc()
		}
	}
}

func newAccMetrics(reg *telemetry.Registry) *accMetrics {
	m := &accMetrics{
		writerMembers:  reg.Counter("nxzip.writer.members"),
		readerMembers:  reg.Counter("nxzip.reader.members"),
		streamSegments: reg.Counter("nxzip.stream.segments"),
		parallelChunks: reg.Counter("nxzip.parallel.chunks"),
		reorderDepth:   reg.Gauge("nxzip.parallel.reorder_depth"),
		fallbacks:      reg.Counter("nxzip.fallbacks"),
		redispatches:   reg.Counter("nxzip.redispatches"),
	}
	vec := reg.CounterVec("nxzip.codec.fallbacks")
	for _, c := range nx.AllCodecs() {
		m.codecFallbacks[c] = vec.With(c.String())
	}
	return m
}

// Open instantiates the device model and a context (address space + VAS
// send window) for the caller. Open is the one-device special case of
// OpenNode: the returned Accelerator is a view over a single-device
// node, and its snapshots and behaviour are identical to the
// pre-topology layout.
func Open(cfg Config) *Accelerator {
	if cfg.Device.Engines == 0 {
		cfg.Device = nx.P9Device()
	}
	n, err := OpenNode(NodeConfig{Shape: topology.Single(cfg.Device), TableMode: cfg.TableMode})
	if err != nil {
		// Unreachable: the empty Dispatch string always parses.
		panic(err)
	}
	a := n.View()
	a.cfg = cfg
	return a
}

// Metrics returns a point-in-time snapshot of every instrument in the
// stack: switchboard (vas.*), translation (nmmu.*), device and engines
// (nx.*), and the stream layer (nxzip.*). Counters reconcile with the
// run's request/byte totals: nx.requests counts engine passes,
// nxzip.writer.members counts gzip members, and so on. On a
// multi-device node the snapshot carries per-device rows under
// device-prefixed labels plus aggregate rows under the original names.
func (a *Accelerator) Metrics() *telemetry.Snapshot {
	if a.root != nil {
		return a.root.Metrics()
	}
	return a.node.MetricsSnapshot()
}

// StartTrace enables request-lifecycle tracing: every request from now
// until StopTrace carries a trace span (paste attempts, credit waits,
// FIFO residency, translation and fault rounds, pipeline stages, CSB
// completion) emitted to sink when the request completes. With tracing
// off — the default — the request path allocates nothing for telemetry.
// On a multi-device node one shared tracer covers every device.
func (a *Accelerator) StartTrace(sink telemetry.Sink) { a.node.StartTrace(sink) }

// StopTrace disables tracing and closes the sink (flushing, for the
// Chrome sink, the accumulated trace document) exactly once.
func (a *Accelerator) StopTrace() error { return a.node.StopTrace() }

// Close releases the view's send windows (one per device). Close is
// idempotent: second and concurrent calls are no-ops, so a deferred
// Close is always safe even when an error path closed explicitly. The
// Accelerator must not submit work afterwards.
func (a *Accelerator) Close() {
	if a.closed.CompareAndSwap(false, true) {
		// Retire this view's tenant entry at the admission gate so closed
		// views neither dilute live tenants' quota shares nor accumulate
		// in the controller's tenant map.
		if ctrl := a.admissionCtrl(); ctrl != nil {
			ctrl.UnregisterTenant(a.nctx.ID())
		}
		// Queue the view's labeled series for retirement once the grace
		// period lapses (tenant.go), so view churn does not grow the
		// exposition without bound.
		if a.root != nil {
			a.root.noteTenantClosed(a.nctx.ID())
		}
		a.nctx.Close()
	}
}

// Device exposes the underlying device model for experiments (MMU
// eviction, VAS stats, engine counters).
func (a *Accelerator) Device() *nx.Device { return a.dev }

// PipelineConfig returns the engine timing model.
func (a *Accelerator) PipelineConfig() pipeline.Config { return a.dev.PipelineConfig() }

func (a *Accelerator) funcCode() nx.FuncCode {
	switch {
	case a.cfg.TableMode == TableFixed:
		return nx.FCCompressFHT
	case a.cfg.TableMode == TableCanned && a.canned != nil:
		return nx.FCCompressCannedDHT
	}
	return nx.FCCompressDHT
}

// TrainTable builds a canned Huffman table from a representative sample
// (via the hardware matcher's symbol statistics, floored so the table can
// encode any input) and installs it for TableCanned mode.
func (a *Accelerator) TrainTable(sample []byte) error {
	m := lz77.NewHWMatcher(a.dev.Engine(0).Config().LZ)
	toks, _ := m.Tokenize(nil, sample)
	lf, df := deflate.CountFrequencies(toks)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		return err
	}
	a.canned = dht
	return nil
}

// fillMetrics writes one request's accounting into a caller-owned
// Metrics.
func fillMetrics(m *Metrics, rep *nx.Report, csb *nx.CSB) {
	*m = Metrics{}
	if rep != nil {
		m.InBytes = rep.InBytes
		m.OutBytes = rep.OutBytes
		m.Ratio = rep.Ratio
		m.DeviceCycles = rep.TotalCycles
		m.DeviceTime = rep.Time
		m.Faults = rep.Retries
		m.PasteRejects = rep.PasteRejects
		m.BackoffWaits = rep.BackoffWaits
		m.BackoffTime = rep.BackoffTime
		m.WastedCycles = rep.WastedCycles
	}
	if csb != nil {
		m.CRC32 = csb.CRC32
		m.Adler32 = csb.Adler32
		m.QueueWait = csb.QueueWait
	}
}

// compress runs one copying compression request with the configured
// table mode through nctx: the pooled core writes into pool-owned
// scratch, the caller gets an exact-size copy (one allocation — the
// result itself), and VA spans recycle through the context arena.
func (a *Accelerator) compress(nctx *topology.Context, op string, src []byte, wrap nx.Wrap) ([]byte, *Metrics, error) {
	os, m := getOneShot(), new(Metrics)
	out, err := a.compressInto(nctx, op, os, os.buf[:0], src, wrap, m)
	return copyOut(os, out, m, err)
}

// decompress is compress's inflate twin on the view's own context.
func (a *Accelerator) decompress(src []byte, wrap nx.Wrap, maxOutput int) ([]byte, *Metrics, error) {
	os, m := getOneShot(), new(Metrics)
	out, err := a.decompressInto(a.nctx, "decompress", os, os.buf[:0], src, wrap, inflateBound(src, maxOutput), m)
	return copyOut(os, out, m, err)
}

// copyOut hands the caller an exact-size copy of a result built in
// os's scratch, keeping the (possibly grown) backing pooled.
func copyOut(os *oneShot, out []byte, m *Metrics, err error) ([]byte, *Metrics, error) {
	defer putOneShot(os)
	if err != nil {
		return nil, m, err
	}
	os.buf = out[:0]
	return append(make([]byte, 0, len(out)), out...), m, nil
}

// inflateBound is a decode's output bound: maxOutput when set, else a
// size heuristic (256x the input, at least 1 MiB).
func inflateBound(src []byte, maxOutput int) int {
	if maxOutput > 0 {
		return maxOutput
	}
	return max(256*len(src), 1<<20)
}

// memberCapInitial is the first output-buffer size decompressMemberOn
// tries; memberCapGrowth multiplies it on each target-space resubmit.
const (
	memberCapInitial = 4 << 20
	memberCapGrowth  = 8
)

// decompressMember inflates the first gzip member of src through nctx
// — the per-member request of Reader — bounded by budget output bytes,
// returning the plaintext, the encoded bytes consumed, and metrics.
func (a *Accelerator) decompressMember(nctx *topology.Context, src []byte, budget int) ([]byte, int, *Metrics, error) {
	budget = max(budget, 1)
	var consumed int
	c := call{a: a, nctx: nctx, op: "member-decompress", need: deflateNeed}
	out, m, err := c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) (plain []byte, err error) {
			plain, consumed, err = a.decompressMemberOn(ctx, src, budget, m, req, hop)
			return plain, err
		},
		func(m *Metrics) ([]byte, error) {
			start := time.Now()
			plain, n, err := deflate.DecompressGzipTail(src, deflate.InflateOptions{MaxOutput: budget})
			if err != nil {
				return nil, softInflateErr(err, budget)
			}
			consumed = n
			softMetrics(m, plain, n, len(plain), start)
			return plain, nil
		})
	return out, consumed, m, err
}

// decompressMemberOn is one device attempt of decompressMember on ctx,
// accumulating every submission's accounting into m. The engine decodes
// the member exactly once and reports consumed bytes via the CSB's
// SPBC, so multi-member streams advance without a separate
// boundary-finding pass.
//
// The output buffer starts modest and grows on CCTargetSpace — the
// resubmit loop the production NX library runs on CC=13. Mapping (and
// translating) a worst-case DEFLATE-expansion buffer up front would cost
// more pages than the member itself; this way the common member costs one
// small mapping and a bomb is rejected after at most one buffer's worth
// of decode per size step.
func (a *Accelerator) decompressMemberOn(ctx *nx.Context, src []byte, budget int, m *Metrics, req uint64, hop int) ([]byte, int, error) {
	srcVA, err := ctx.AcquireVA(len(src))
	if err != nil {
		return nil, 0, err
	}
	defer ctx.ReleaseVA(srcVA)
	capOut := min(memberCapInitial, budget)
	for {
		dstVA, err := ctx.AcquireVA(capOut)
		if err != nil {
			return nil, 0, err
		}
		crb := &nx.CRB{
			Func: nx.FCDecompress, Wrap: nx.WrapGzip, Input: src,
			SourceVA: srcVA, TargetVA: dstVA,
			TargetCap: capOut, MaxOutput: budget, FirstMemberOnly: true,
			ReqID: req, Hop: hop,
		}
		csb, rep, err := ctx.Submit(crb)
		// The model's data plane completes inside Submit, so the span can
		// recycle immediately — each grow round releases its buffer before
		// acquiring the next size up. (The old per-round MapBuffer leaked
		// every outgrown mapping for the life of the context.)
		ctx.ReleaseVA(dstVA)
		if err != nil {
			return nil, 0, err
		}
		var round Metrics
		fillMetrics(&round, rep, csb)
		m.add(&round)
		switch {
		case csb.CC == nx.CCTargetSpace && capOut < budget:
			// Buffer too small, budget not exhausted: enlarge and resubmit.
			capOut = min(capOut*memberCapGrowth, budget)
		case csb.CC == nx.CCTargetSpace:
			return nil, 0, fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", budget)
		case csb.CC != nx.CCSuccess:
			return nil, 0, ccFail("decompress", csb)
		default:
			m.InBytes = csb.SPBC
			m.OutBytes = csb.TPBC
			m.Ratio = round.Ratio
			m.CRC32 = csb.CRC32
			m.Adler32 = csb.Adler32
			return csb.Output, csb.SPBC, nil
		}
	}
}

// CompressGzip compresses src into a gzip stream through the accelerator
// model.
func (a *Accelerator) CompressGzip(src []byte) ([]byte, *Metrics, error) {
	return a.compress(a.nctx, "compress", src, nx.WrapGzip)
}

// CompressZlib compresses src into a zlib stream.
func (a *Accelerator) CompressZlib(src []byte) ([]byte, *Metrics, error) {
	return a.compress(a.nctx, "compress", src, nx.WrapZlib)
}

// CompressRaw compresses src into a bare DEFLATE stream.
func (a *Accelerator) CompressRaw(src []byte) ([]byte, *Metrics, error) {
	return a.compress(a.nctx, "compress", src, nx.WrapRaw)
}

// DecompressGzip inflates a (single-member) gzip stream. maxOutput of 0
// applies a size heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) DecompressGzip(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(src, nx.WrapGzip, 0)
}

// DecompressZlib inflates a zlib stream.
func (a *Accelerator) DecompressZlib(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(src, nx.WrapZlib, 0)
}

// DecompressRaw inflates a bare DEFLATE stream.
func (a *Accelerator) DecompressRaw(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(src, nx.WrapRaw, 0)
}

// Compress842 compresses with the 842 engine (the POWER NX's memory
// compression format).
func (a *Accelerator) Compress842(src []byte) ([]byte, *Metrics, error) {
	return a.blockCompressOp(nx.Codec842, src)
}

// Decompress842 decompresses 842 data. maxOutput of 0 applies a size
// heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) Decompress842(src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return a.blockDecompressOp(nx.Codec842, src, maxOutput)
}

// CompressLZ4 compresses src into one LZ4 block through the pool's
// LZ4-capable devices, with software fallback.
func (a *Accelerator) CompressLZ4(src []byte) ([]byte, *Metrics, error) {
	return a.blockCompressOp(nx.CodecLZ4, src)
}

// DecompressLZ4 decompresses one LZ4 block. maxOutput of 0 applies a
// size heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) DecompressLZ4(src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return a.blockDecompressOp(nx.CodecLZ4, src, maxOutput)
}

// blockCompressOp runs any block codec (842, LZ4) through the request
// lifecycle with a codec requirement: dispatch considers only devices
// advertising the codec, and when none is healthy — or the pool simply
// has no such hardware — the matching software codec produces the
// result with Metrics.Degraded set.
func (a *Accelerator) blockCompressOp(codec nx.Codec, src []byte) ([]byte, *Metrics, error) {
	c := call{a: a, nctx: a.nctx, op: codec.String() + "-compress", need: nx.Codecs(codec)}
	return c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error) {
			return submitCRB(ctx, &nx.CRB{Func: codec.CompressFunc(), Input: src, ReqID: req, Hop: hop}, codec.String(), m)
		},
		func(m *Metrics) ([]byte, error) { return softBlockCompress(codec, src, m) })
}

// blockDecompressOp is blockCompressOp's decompression side.
func (a *Accelerator) blockDecompressOp(codec nx.Codec, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	budget := inflateBound(src, maxOutput)
	c := call{a: a, nctx: a.nctx, op: codec.String() + "-decompress", need: nx.Codecs(codec)}
	return c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error) {
			crb := &nx.CRB{Func: codec.DecompressFunc(), Input: src, MaxOutput: budget, TargetCap: budget, ReqID: req, Hop: hop}
			return submitCRB(ctx, crb, codec.String(), m)
		},
		func(m *Metrics) ([]byte, error) { return softBlockDecompress(codec, src, budget, m) })
}

// Context exposes the raw device context for advanced use (canned DHTs,
// demand-paged buffers, CSB inspection).
func (a *Accelerator) Context() *nx.Context { return a.ctx }

// MMU exposes the translation unit (fault-injection experiments).
func (a *Accelerator) MMU() *nmmu.MMU { return a.dev.MMU() }

// SoftwareGzip is the paper's baseline: a from-scratch zlib-equivalent
// software codec at levels 1..9, gzip-framed.
func SoftwareGzip(src []byte, level int) ([]byte, error) {
	return deflate.CompressGzip(src, deflate.Options{Level: level})
}

// SoftwareGunzip inflates a gzip stream in software.
func SoftwareGunzip(src []byte) ([]byte, error) {
	return deflate.DecompressGzip(src, deflate.InflateOptions{})
}

// GunzipMulti inflates a possibly multi-member gzip stream (what the
// streaming Writer emits) in software.
func GunzipMulti(src []byte) ([]byte, error) {
	return deflate.DecompressGzipMulti(src, deflate.InflateOptions{})
}

// CompressZlibDict compresses src against a preset dictionary (RFC 1950
// FDICT) through the accelerator: the dictionary rides the CRB's history
// mechanism (the engine replays it through the LZ stage), and the wrapper
// applies the FDICT framing with the dictionary's Adler-32.
func (a *Accelerator) CompressZlibDict(src, dict []byte) ([]byte, *Metrics, error) {
	c := call{a: a, nctx: a.nctx, op: "dict-compress", need: deflateNeed}
	return c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error) {
			crb := &nx.CRB{Func: a.funcCode(), Wrap: nx.WrapRaw, Input: src, History: dict, ReqID: req, Hop: hop}
			if crb.Func == nx.FCCompressCannedDHT {
				crb.DHT = a.canned
			}
			body, err := submitCRB(ctx, crb, "dict compress", m)
			if err != nil {
				return nil, err
			}
			return deflate.ZlibWrapDict(body, src, dict), nil
		},
		func(m *Metrics) ([]byte, error) {
			start := time.Now()
			out, err := deflate.CompressZlibDict(src, dict, deflate.Options{Level: softLevel})
			if err != nil {
				return nil, err
			}
			softMetrics(m, src, len(src), len(out), start)
			return out, nil
		})
}

// DecompressZlibDict inflates a zlib stream that may require a preset
// dictionary. On a device the dictionary seeds a resume request's
// window, exactly as a stream's history does: the wrapper checks the
// DICTID and the plaintext's Adler-32 around one raw decode.
func (a *Accelerator) DecompressZlibDict(src, dict []byte) ([]byte, *Metrics, error) {
	c := call{a: a, nctx: a.nctx, op: "dict-decompress", need: deflateNeed}
	return c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error) {
			body, wantAdler, dictID, hasDict, err := deflate.ZlibUnwrapDict(src)
			if err != nil {
				return nil, err
			}
			var window []byte
			if hasDict {
				if got := checksum.SumAdler32(dict); got != dictID {
					return nil, fmt.Errorf("%w: dictionary adler %08x, stream wants %08x", deflate.ErrBadChecksum, got, dictID)
				}
				window = dict
			}
			// A fresh session per attempt: a re-dispatch never replays
			// input into a window another device already advanced.
			crb := &nx.CRB{Func: nx.FCDecompress, Wrap: nx.WrapRaw, Input: body,
				DecompState: nx.NewDecompStateWithDict(0, window), ReqID: req, Hop: hop}
			out, err := submitCRB(ctx, crb, "dict decompress", m)
			if err != nil {
				return nil, err
			}
			if got := checksum.SumAdler32(out); got != wantAdler {
				return nil, fmt.Errorf("%w: adler %08x, want %08x", deflate.ErrBadChecksum, got, wantAdler)
			}
			return out, nil
		},
		func(m *Metrics) ([]byte, error) {
			start := time.Now()
			out, err := deflate.DecompressZlibDict(src, dict, deflate.InflateOptions{})
			if err != nil {
				return nil, err
			}
			softMetrics(m, out, len(src), len(out), start)
			return out, nil
		})
}
