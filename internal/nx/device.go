package nx

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/faultinject"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/obs"
	"nxzip/internal/pipeline"
	"nxzip/internal/telemetry"
	"nxzip/internal/vas"
)

// DeviceConfig assembles a full accelerator: engine model, translation
// unit and switchboard.
type DeviceConfig struct {
	Engine EngineConfig
	MMU    nmmu.Config
	VAS    vas.Config
	// Engines is the number of identical engines sharing the receive FIFO
	// (the P9 NX has separate gzip/842 engines; the z15 NXU has two
	// compression cores). Default 1.
	Engines int
	// Submit bounds the recovery work one request may consume (fault
	// resubmit rounds, paste retries, backoff waits). Zero fields take
	// DefaultSubmitPolicy values.
	Submit SubmitPolicy
}

// SubmitPolicy is the submission-side recovery budget: how hard
// Context.submit fights for one request before reporting a typed
// failure instead of spinning forever.
type SubmitPolicy struct {
	// MaxFaultRounds caps translation-fault touch-and-resubmit rounds;
	// beyond it submission fails with ErrFaultStorm. A page that never
	// becomes resident (or an injected fault storm) is bounded by this.
	MaxFaultRounds int
	// MaxPasteAttempts caps paste tries per round (draining the FIFO
	// between tries); beyond it submission fails with ErrDeviceBusy.
	MaxPasteAttempts int
	// MaxBackoffWaits caps how many backoff sleeps a round may take while
	// the FIFO is empty and the paste keeps bouncing — the signature of a
	// wedged window (leaked credits) rather than ordinary saturation.
	// Beyond it submission fails with ErrDeviceBusy.
	MaxBackoffWaits int
	// BackoffBase/BackoffMax shape the exponential backoff (with jitter)
	// between paste retries when there is no queued work to drain.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// DefaultSubmitPolicy returns the shipped recovery budget.
func DefaultSubmitPolicy() SubmitPolicy {
	return SubmitPolicy{
		MaxFaultRounds:   64,
		MaxPasteAttempts: 1 << 20,
		MaxBackoffWaits:  2048,
		BackoffBase:      2 * time.Microsecond,
		BackoffMax:       time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultSubmitPolicy.
func (p SubmitPolicy) withDefaults() SubmitPolicy {
	def := DefaultSubmitPolicy()
	if p.MaxFaultRounds <= 0 {
		p.MaxFaultRounds = def.MaxFaultRounds
	}
	if p.MaxPasteAttempts <= 0 {
		p.MaxPasteAttempts = def.MaxPasteAttempts
	}
	if p.MaxBackoffWaits <= 0 {
		p.MaxBackoffWaits = def.MaxBackoffWaits
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = def.BackoffMax
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = p.BackoffBase
		}
	}
	return p
}

// P9Device returns the POWER9 single-chip device configuration.
func P9Device() DeviceConfig {
	return DeviceConfig{Engine: P9Engine(), MMU: nmmu.DefaultConfig(), VAS: vas.DefaultConfig(), Engines: 1}
}

// Z15Device returns the z15 on-chip NXU configuration.
func Z15Device() DeviceConfig {
	return DeviceConfig{Engine: Z15Engine(), MMU: nmmu.DefaultConfig(), VAS: vas.DefaultConfig(), Engines: 1}
}

// Device is one on-chip accelerator instance: a receive FIFO fed by user
// windows, N engines, and the shared NMMU.
type Device struct {
	cfg     DeviceConfig
	mmu     *nmmu.MMU
	sb      *vas.Switchboard
	engines []*Engine
	nextEng atomic.Int64
	ctxSeq  atomic.Uint64

	reg     *telemetry.Registry
	met     *devMetrics
	tracer  atomic.Pointer[telemetry.Tracer]
	inj     atomic.Pointer[faultinject.Injector]
	events  atomic.Pointer[eventHook]
	created time.Time
}

// eventHook pairs the node's event bus with this device's topology
// label, so device-local transitions (engine hangs, credit leaks)
// publish under the right name.
type eventHook struct {
	bus   *obs.Bus
	label string
}

// devMetrics holds the device-level instruments, resolved once at
// construction so the request path pays only atomic updates.
type devMetrics struct {
	requests     *telemetry.Counter
	inBytes      *telemetry.Counter
	outBytes     *telemetry.Counter
	faultRetries *telemetry.Counter
	syncCalls    *telemetry.Counter
	queueWaitUS  *telemetry.Histogram // paste-accept to dequeue, µs wall-clock
	cc           [ccCount]*telemetry.Counter

	// Per-codec traffic split (nx.codec.* vecs, labeled by codec name):
	// the aggregate nx.requests/in_bytes/out_bytes stay untouched — the
	// SLO engine reads them by exact name.
	codecRequests [codecCount]*telemetry.Counter
	codecInBytes  [codecCount]*telemetry.Counter
	codecOutBytes [codecCount]*telemetry.Counter

	// Recovery instruments (the failure model's visible surface).
	faultStorms    *telemetry.Counter   // submissions that hit the fault-round cap
	engineHangs    *telemetry.Counter   // requests dropped without a CSB write
	offlineRejects *telemetry.Counter   // submissions refused: device offline
	deadlineFails  *telemetry.Counter   // submissions that ran out of deadline
	backoffWaits   *telemetry.Counter   // paste backoff sleeps taken
	backoffUS      *telemetry.Histogram // per-request total backoff, µs wall-clock
}

// bumpCodec splits one completed request into the per-codec series.
// Transcode requests bump both sides; FCMove (no codec) bumps none.
// Allocation-free: it runs on the pooled zero-alloc path.
func (m *devMetrics) bumpCodec(crb *CRB, csb *CSB) {
	need := crb.RequiredCodecs()
	for c := Codec(0); c < codecCount; c++ {
		if need.Has(c) {
			m.codecRequests[c].Inc()
			m.codecInBytes[c].Add(int64(csb.SPBC))
			m.codecOutBytes[c].Add(int64(csb.TPBC))
		}
	}
}

// NewDevice builds a device.
func NewDevice(cfg DeviceConfig) *Device {
	if cfg.Engines <= 0 {
		cfg.Engines = 1
	}
	cfg.Submit = cfg.Submit.withDefaults()
	reg := telemetry.NewRegistry()
	d := &Device{
		cfg:     cfg,
		mmu:     nmmu.New(cfg.MMU),
		sb:      vas.New(cfg.VAS),
		reg:     reg,
		created: time.Now(),
	}
	d.met = &devMetrics{
		requests:     reg.Counter("nx.requests"),
		inBytes:      reg.Counter("nx.in_bytes"),
		outBytes:     reg.Counter("nx.out_bytes"),
		faultRetries: reg.Counter("nx.fault_retries"),
		syncCalls:    reg.Counter("nx.sync_calls"),
		queueWaitUS:  reg.Histogram("nx.queue_wait_us"),

		faultStorms:    reg.Counter("nx.fault_storms"),
		engineHangs:    reg.Counter("nx.engine_hangs"),
		offlineRejects: reg.Counter("nx.offline_rejects"),
		deadlineFails:  reg.Counter("nx.deadline_exceeded"),
		backoffWaits:   reg.Counter("nx.backoff_waits"),
		backoffUS:      reg.Histogram("nx.backoff_us"),
	}
	ccVec := reg.CounterVec("nx.cc")
	for cc := CC(0); cc < ccCount; cc++ {
		d.met.cc[cc] = ccVec.With(cc.String())
	}
	codecReqVec := reg.CounterVec("nx.codec.requests")
	codecInVec := reg.CounterVec("nx.codec.in_bytes")
	codecOutVec := reg.CounterVec("nx.codec.out_bytes")
	for _, c := range AllCodecs() {
		d.met.codecRequests[c] = codecReqVec.With(c.String())
		d.met.codecInBytes[c] = codecInVec.With(c.String())
		d.met.codecOutBytes[c] = codecOutVec.With(c.String())
	}
	d.mmu.SetMetrics(reg)
	d.sb.SetMetrics(reg)
	for i := 0; i < cfg.Engines; i++ {
		d.engines = append(d.engines, NewEngine(cfg.Engine, d.mmu))
	}
	return d
}

// Registry exposes the device's metrics registry so callers can add
// their own instruments (the root package's writer/reader stats live
// here too, keeping one snapshot for the whole stack).
func (d *Device) Registry() *telemetry.Registry { return d.reg }

// StartTrace installs a tracer: from now on every request carries a
// span emitted to sink at CSB completion. Replaces any previous tracer
// without closing its sink. With no tracer installed the request path
// allocates nothing for tracing.
func (d *Device) StartTrace(sink telemetry.Sink) {
	d.tracer.Store(telemetry.NewTracer(sink))
}

// StopTrace uninstalls the tracer and closes its sink. In-flight spans
// started under the old tracer still emit to it.
func (d *Device) StopTrace() error {
	return d.tracer.Swap(nil).Close()
}

// InstallTracer installs an existing tracer without building a new one —
// node-level tracing shares one tracer (one span-id sequence, one sink)
// across every device of a pool.
func (d *Device) InstallTracer(t *telemetry.Tracer) { d.tracer.Store(t) }

// RemoveTracer uninstalls and returns the tracer without closing its
// sink, so a shared sink is closed exactly once by the owner.
func (d *Device) RemoveTracer() *telemetry.Tracer { return d.tracer.Swap(nil) }

// Tracer returns the installed tracer, or nil when tracing is off.
func (d *Device) Tracer() *telemetry.Tracer { return d.tracer.Load() }

// SetInjector installs a fault injector across every layer of the
// device — submission path, engines, translation unit and switchboard
// all consult it at their hook points. Passing nil uninstalls it. With
// no injector installed (the default) every hook is an atomic load plus
// a nil check, mirroring the tracer wiring.
func (d *Device) SetInjector(inj *faultinject.Injector) {
	d.inj.Store(inj)
	for _, e := range d.engines {
		e.SetInjector(inj)
	}
	d.mmu.SetInjector(inj)
	d.sb.SetInjector(inj)
}

// Injector returns the installed injector, or nil when fault injection
// is off.
func (d *Device) Injector() *faultinject.Injector { return d.inj.Load() }

// SetEventBus attaches the node's event bus; label names this device in
// published events. Device-local transitions — engine hangs and
// switchboard credit leaks — publish through it. Passing a nil bus
// detaches, restoring the zero-cost path (one atomic load + nil check).
func (d *Device) SetEventBus(bus *obs.Bus, label string) {
	if bus == nil {
		d.events.Store(nil)
		d.sb.SetCreditLeakHook(nil)
		return
	}
	d.events.Store(&eventHook{bus: bus, label: label})
	d.sb.SetCreditLeakHook(func() {
		bus.Publish(obs.Event{Type: obs.EventCreditLeak, Device: label, Detail: "completion swallowed send-window credit"})
	})
}

// Offline reports whether the device is currently offlined by the
// injector (the chaos harness's kill switch). An offline device refuses
// new submissions with ErrDeviceOffline; requests already on an engine
// complete normally, like a drawer being fenced.
func (d *Device) Offline() bool { return d.inj.Load().Offline() }

// engineStageNames orders a breakdown's per-stage sums for labeling.
var engineStageNames = []string{
	"setup", "translate", "dht-gen", "dma-in", "lz", "encode", "decode", "dma-out", "complete",
}

func breakdownByStage(b pipeline.Breakdown) []int64 {
	return []int64{b.Setup, b.Translate, b.DHTGen, b.DMAIn, b.LZ, b.Encode, b.Decode, b.DMAOut, b.Complete}
}

// MetricsSnapshot captures every instrument: the registry (vas.*,
// nmmu.*, nx.* and anything callers registered) plus the per-engine
// counters harvested under each engine's lock — requests, bytes, CC
// counts, per-stage cycle sums, and busy/idle cycles (idle = wall-clock
// since device creation converted at the modelled clock, minus busy).
func (d *Device) MetricsSnapshot() *telemetry.Snapshot {
	snap := d.reg.Snapshot()
	elapsedCycles := d.UptimeCycles()
	for i, e := range d.engines {
		ct := e.Counters()
		label := strconv.Itoa(i)
		idle := elapsedCycles - ct.BusyCycles
		if idle < 0 {
			idle = 0
		}
		snap.Counters = append(snap.Counters,
			telemetry.CounterSnapshot{Name: "nx.engine.requests", Label: label, Value: ct.Requests},
			telemetry.CounterSnapshot{Name: "nx.engine.busy_cycles", Label: label, Value: ct.BusyCycles},
			telemetry.CounterSnapshot{Name: "nx.engine.idle_cycles", Label: label, Value: idle},
			telemetry.CounterSnapshot{Name: "nx.engine.in_bytes", Label: label, Value: ct.InBytes},
			telemetry.CounterSnapshot{Name: "nx.engine.out_bytes", Label: label, Value: ct.OutBytes},
		)
		stages := breakdownByStage(ct.StageCycles)
		for si, name := range engineStageNames {
			snap.Counters = append(snap.Counters, telemetry.CounterSnapshot{
				Name: "nx.engine.stage_cycles", Label: label + "/" + name, Value: stages[si],
			})
		}
		for cc := CC(0); cc < ccCount; cc++ {
			if n := ct.CCCounts[cc]; n > 0 {
				snap.Counters = append(snap.Counters, telemetry.CounterSnapshot{
					Name: "nx.engine.cc", Label: label + "/" + cc.String(), Value: n,
				})
			}
		}
	}
	snap.Sort()
	return snap
}

// UptimeCycles returns wall-clock time since device creation converted
// to modelled engine cycles — the denominator for utilization.
func (d *Device) UptimeCycles() int64 {
	return int64(time.Since(d.created).Seconds() * d.cfg.Engine.Pipeline.ClockGHz * 1e9)
}

// BusyCycles sums the busy cycles across the device's engines; paired
// with UptimeCycles it yields device utilization.
func (d *Device) BusyCycles() int64 {
	var total int64
	for _, e := range d.engines {
		total += e.Counters().BusyCycles
	}
	return total
}

// MMU exposes the translation unit (tests and the fault experiments evict
// pages through it).
func (d *Device) MMU() *nmmu.MMU { return d.mmu }

// Switchboard exposes the VAS instance.
func (d *Device) Switchboard() *vas.Switchboard { return d.sb }

// EngineCount returns the number of engines behind the receive FIFO.
func (d *Device) EngineCount() int { return len(d.engines) }

// Codecs returns the codec capability set this device's engines
// advertise (zero means all codecs). Dispatch layers route by it.
func (d *Device) Codecs() CodecSet { return d.cfg.Engine.Codecs }

// Engine returns engine i, wrapping modulo EngineCount: Engine(i) never
// panics for i >= 0, which serves callers spreading work with an
// unbounded counter. Callers indexing a known engine range should use
// EngineAt, which refuses out-of-range indices instead of silently
// aliasing engine i%N.
func (d *Device) Engine(i int) *Engine { return d.engines[i%len(d.engines)] }

// EngineAt returns engine i with strict bounds checking — no modulo
// wrap. It reports an error when i is outside [0, EngineCount).
func (d *Device) EngineAt(i int) (*Engine, error) {
	if i < 0 || i >= len(d.engines) {
		return nil, fmt.Errorf("nx: engine index %d out of range [0,%d)", i, len(d.engines))
	}
	return d.engines[i], nil
}

// PipelineConfig returns the engine timing model.
func (d *Device) PipelineConfig() pipeline.Config { return d.cfg.Engine.Pipeline }

// Context is a process's view of the device: an address space, a send
// window, and a bump allocator for buffer VAs. A Context is safe for
// concurrent use by multiple goroutines: requests from all of them ride
// the same send window (sharing its credits) and buffer VAs are handed
// out under a lock. Callers that want per-worker windows — the
// multi-window submission pattern the VAS design is built for — open one
// Context per worker instead.
type Context struct {
	dev    *Device
	pid    nmmu.PID
	window int
	closed atomic.Bool

	// tenant is the node-level view identity this context submits under
	// (topology.Context.ID): stamped onto every span so traces join with
	// admission quotas and tenant-labeled latency series. 0 for raw
	// single-device contexts opened outside a node view.
	tenant uint64
	// prio points at the admission-class name the owning view currently
	// carries ("interactive", "batch", "background"); nil when the view
	// never set one. A pointer to a static name keeps the span-start
	// read allocation-free.
	prio atomic.Pointer[string]

	mu     sync.Mutex
	nextVA uint64
	// Reusable VA arena: released spans pool in per-size-class free
	// lists (class = log2 of the page count, rounded up) and are handed
	// back by AcquireVA without touching the MMU — steady-state one-shot
	// traffic mints no fresh translations. vaClass remembers each arena
	// span's class so ReleaseVA is self-describing.
	arena   [arenaClasses][]uint64
	vaClass map[uint64]uint8
}

// arenaClasses bounds the arena's size-class ladder: class c spans
// 1<<c pages, so 32 classes cover far beyond any modelled buffer.
const arenaClasses = 32

// ctxVASpan is the size of each context's private VA region. Contexts of
// the same address space allocate from disjoint regions so concurrent
// contexts never alias pages.
const ctxVASpan = 1 << 44

// OpenContext registers an address space and opens a send window.
func (d *Device) OpenContext(pid nmmu.PID) *Context {
	d.mmu.CreateSpace(pid)
	return &Context{
		dev:    d,
		pid:    pid,
		window: d.sb.OpenSendWindow(pid),
		// Leave a null guard region at the bottom of the region.
		nextVA: d.ctxSeq.Add(1)*ctxVASpan + 1<<20,
	}
}

// Close releases the context's send window. Close is idempotent: the
// window is released exactly once and repeated calls are no-ops, so a
// double close can neither panic nor disturb the switchboard's credit
// accounting. Requests in flight at Close drain normally (their credits
// return via Complete); new submissions fail with vas.ErrWindowClosed.
func (c *Context) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.dev.sb.CloseSendWindow(c.window)
	}
}

// PID returns the context's address-space id.
func (c *Context) PID() nmmu.PID { return c.pid }

// Window returns the context's VAS send-window id (tests and tools
// inspect credits through it).
func (c *Context) Window() int { return c.window }

// SetTenant stamps the node-level view identity this context submits
// under. Setup-time configuration: call before concurrent submission
// begins (the topology layer sets it at context open).
func (c *Context) SetTenant(id uint64) { c.tenant = id }

// Tenant returns the context's view identity (0 when unset).
func (c *Context) Tenant() uint64 { return c.tenant }

// SetPriorityName publishes the admission-class name this context's
// requests carry; spans started afterwards are stamped with it. Safe
// to call concurrently with submission.
func (c *Context) SetPriorityName(name string) { c.prio.Store(&name) }

// priorityName reads the current class name without allocating.
func (c *Context) priorityName() string {
	if p := c.prio.Load(); p != nil {
		return *p
	}
	return ""
}

// MapBuffer reserves a buffer VA range. resident=false maps it
// demand-paged, so the engine faults on first access (experiment E12).
func (c *Context) MapBuffer(size int, resident bool) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	ps := uint64(c.dev.mmu.Config().PageSize)
	span := (uint64(size) + ps - 1) / ps * ps
	c.mu.Lock()
	va := c.nextVA
	c.nextVA += span + ps // guard page between buffers
	c.mu.Unlock()
	if err := c.dev.mmu.Map(c.pid, va, size, resident); err != nil {
		return 0, err
	}
	return va, nil
}

// AcquireVA returns a resident mapping for a buffer of size bytes from
// the context's reusable arena. The first acquisition of a size class
// maps fresh pages; after ReleaseVA the span is handed out again with no
// MMU work at all, so repeated one-shot requests stop minting fresh
// translations (the leak MapBuffer's bump-only allocator had). Spans are
// rounded up to a power-of-two page count and keep a guard page after
// them. Use MapBuffer instead for demand-paged (resident=false) ranges.
func (c *Context) AcquireVA(size int) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	ps := c.dev.mmu.Config().PageSize
	pages := (size + ps - 1) / ps
	cls := uint8(0)
	for 1<<cls < pages {
		cls++
	}
	span := (uint64(1) << cls) * uint64(ps)
	c.mu.Lock()
	if l := c.arena[cls]; len(l) > 0 {
		va := l[len(l)-1]
		c.arena[cls] = l[:len(l)-1]
		c.mu.Unlock()
		return va, nil
	}
	va := c.nextVA
	c.nextVA += span + uint64(ps) // guard page between spans
	if c.vaClass == nil {
		c.vaClass = make(map[uint64]uint8)
	}
	c.vaClass[va] = cls
	c.mu.Unlock()
	if err := c.dev.mmu.Map(c.pid, va, int(span), true); err != nil {
		return 0, err
	}
	return va, nil
}

// ReleaseVA returns an AcquireVA span to the arena for reuse. The pages
// stay mapped (software keeps its buffer pool warm; translations are the
// expensive part). Releasing a VA not handed out by AcquireVA is a no-op.
func (c *Context) ReleaseVA(va uint64) {
	if va == 0 {
		return
	}
	c.mu.Lock()
	if cls, ok := c.vaClass[va]; ok {
		c.arena[cls] = append(c.arena[cls], va)
	}
	c.mu.Unlock()
}

// Report summarizes one completed (possibly retried) request.
type Report struct {
	Engine       string
	Func         FuncCode
	Wrap         Wrap
	InBytes      int
	OutBytes     int
	Ratio        float64 // input/output for compression, output/input for decompression
	Breakdown    pipeline.Breakdown
	Retries      int // fault-and-resubmit rounds
	PasteRejects int // paste bounces (credit/FIFO/injected) across all rounds
	BackoffWaits int // backoff sleeps taken while pasting
	BackoffTime  time.Duration
	WastedCycles int64 // cycles burned by faulted attempts and backoff waits
	TotalCycles  int64 // wasted + final attempt
	Time         time.Duration
	LZ           lz77.HWStats
}

// Submission-path errors. All are errors.Is-able; Retryable classifies
// them for the failover layer.
var (
	// ErrDeviceBusy: the recovery budget for paste retries/backoff waits
	// exhausted (queue saturated or window wedged by leaked credits).
	ErrDeviceBusy = errors.New("nx: device busy: paste rejected repeatedly")
	// ErrFaultStorm: the translation-fault resubmit round cap tripped —
	// a page that never becomes resident, or an injected fault storm.
	ErrFaultStorm = errors.New("nx: translation-fault storm: resubmit budget exhausted")
	// ErrDeviceOffline: the device is fenced (chaos kill, hardware gone).
	ErrDeviceOffline = errors.New("nx: device offline")
	// ErrEngineHang: the engine dropped the request without writing its
	// CSB; the OS-side watchdog reset the engine and reclaimed the credit.
	ErrEngineHang = errors.New("nx: engine hang: no CSB written")
	// ErrDeadlineExceeded: the request's wall-clock budget ran out
	// between recovery rounds.
	ErrDeadlineExceeded = errors.New("nx: request deadline exceeded")
	// ErrCanceled: the request's Cancel channel closed.
	ErrCanceled = errors.New("nx: request canceled")
)

// Retryable reports whether a submission error is worth re-dispatching
// (to the same or, better, another device): the input is intact and the
// failure was transient or device-local. Deadline/cancel failures are
// not retryable (the budget belongs to the caller), and data-plane
// completions (ErrDataCorrupt, ErrInvalidCRB, ErrTargetSpace) are not
// retryable as-is — the failover layer handles those by re-checking or
// rebuilding in software.
func Retryable(err error) bool {
	return errors.Is(err, ErrCRCMismatch) ||
		errors.Is(err, ErrEngineHang) ||
		errors.Is(err, ErrDeviceOffline) ||
		errors.Is(err, ErrDeviceBusy) ||
		errors.Is(err, ErrFaultStorm)
}

// backoffSeq drives the deterministic-enough jitter of paste backoff.
var backoffSeq atomic.Uint64

// jitter returns a sleep in [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	z := backoffSeq.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	half := uint64(d) / 2
	return time.Duration(half + z%(half+1))
}

// pendingCRB is the switchboard payload for one in-flight request (or
// batch envelope) plus its completion slot. Whichever submitter
// goroutine dequeues the entry runs it and sends one token on done; the
// owner waits for that token, so concurrent submitters never lose a
// request another goroutine drained. Entries are pooled: done is a
// buffered one-token channel, never closed, so the same entry cycles
// through fault rounds and back into the pool. ran is the dequeuer's
// word that a CSB was written — the CSB is caller-owned and may hold
// stale bytes, so it cannot tell an engine hang by itself.
//
// The trace fields cross goroutines with well-defined happens-before
// edges: the owner writes span/submitStart/pastedAt before the
// successful Paste (the switchboard mutex publishes them to the
// dequeuer); the dequeuer writes the span's execution record before the
// done send publishes it back to the owner.
type pendingCRB struct {
	crb  *CRB
	csb  *CSB
	done chan struct{}

	wrapped vas.CRB // reusable switchboard envelope; Payload points back here
	ran     bool    // dequeuer wrote a CSB (false after an engine hang)

	// batch, when non-nil, replaces crb/csb: the dequeuer runs every
	// entry in order on the device's engines and completes the envelope
	// once — one paste, one credit, one FIFO slot for the whole batch.
	batch []BatchEntry

	span        *telemetry.Span
	submitStart time.Time // first paste attempt of this round
	pastedAt    time.Time // stamped just before each paste attempt

	// Owner-side paste accounting, summed over every round.
	rejects int
	waits   int
	backoff time.Duration
}

// pendingPool recycles pendingCRBs (and their done channels and
// switchboard envelopes) so the steady-state submission path allocates
// nothing per request.
var pendingPool = sync.Pool{New: func() any {
	p := &pendingCRB{done: make(chan struct{}, 1)}
	p.wrapped.Payload = p
	return p
}}

func getPending() *pendingCRB { return pendingPool.Get().(*pendingCRB) }

// release books the request's total backoff and pools p, dropping its
// request references so recycled entries pin no caller buffers.
func (d *Device) release(p *pendingCRB) {
	if p.backoff > 0 {
		d.met.backoffUS.Observe(float64(p.backoff) / float64(time.Microsecond))
	}
	p.crb = nil
	p.csb = nil
	p.batch = nil
	p.span = nil
	p.ran = false
	p.rejects, p.waits, p.backoff = 0, 0, 0
	pendingPool.Put(p)
}

// backoffCycles converts wall-clock backoff into engine cycles at the
// modelled clock, so recovery waits show up in the cycle accounting.
func backoffCycles(d *Device, t time.Duration) int64 {
	return int64(t.Seconds() * d.cfg.Engine.Pipeline.ClockGHz * 1e9)
}

// fillReport builds the accounting of a completed request: the final
// attempt's completion plus the fault rounds and cycles wasted before
// it. A non-nil p charges the paste bounces and backoff waits of the
// request's envelope, the waits as wasted cycles.
func fillReport(d *Device, crb *CRB, csb *CSB, rep *Report, retries int, wasted int64, p *pendingCRB) {
	*rep = Report{
		Engine:    d.cfg.Engine.Pipeline.Name,
		Func:      crb.Func,
		Wrap:      crb.Wrap,
		InBytes:   csb.SPBC,
		OutBytes:  csb.TPBC,
		Breakdown: csb.Cycles,
		Retries:   retries,
		LZ:        csb.LZ,
	}
	if p != nil {
		rep.PasteRejects = p.rejects
		rep.BackoffWaits = p.waits
		rep.BackoffTime = p.backoff
		wasted += backoffCycles(d, p.backoff)
	}
	rep.WastedCycles = wasted
	rep.TotalCycles = wasted + csb.Cycles.Total
	rep.Time = d.cfg.Engine.Pipeline.Time(rep.TotalCycles)
	if csb.SPBC > 0 && csb.TPBC > 0 {
		rep.Ratio = float64(csb.SPBC) / float64(csb.TPBC)
	}
}

// startSpan opens a request's trace span (nil with tracing off). Window
// -1 marks the synchronous interface, which bypasses the VAS queue.
func (c *Context) startSpan(tr *telemetry.Tracer, crb *CRB, sync bool) *telemetry.Span {
	window := c.window
	if sync {
		window = -1
	}
	s := tr.Start(crb.Func.String(), int(c.pid), window)
	if s != nil {
		s.ReqID = crb.ReqID
		s.Hop = crb.Hop
		s.Tenant = c.tenant
		s.Priority = c.priorityName()
	}
	return s
}

// finishSpan closes s, stamping label as its completion when set.
func finishSpan(tr *telemetry.Tracer, s *telemetry.Span, label string) {
	if s != nil && label != "" {
		s.CC = label
	}
	tr.Finish(s)
}

// expired checks a request's own liveness gates — Cancel, then
// Deadline — and returns the span label and error of a tripped one.
func (d *Device) expired(crb *CRB) (string, error) {
	if crb.Cancel != nil {
		select {
		case <-crb.Cancel:
			return "canceled", ErrCanceled
		default:
		}
	}
	if !crb.Deadline.IsZero() && time.Now().After(crb.Deadline) {
		d.met.deadlineFails.Inc()
		return "deadline", ErrDeadlineExceeded
	}
	return "", nil
}

// offline is the device gate: a fenced device refuses new work.
func (d *Device) offline() (string, error) {
	if d.Offline() {
		d.met.offlineRejects.Inc()
		return "device-offline", ErrDeviceOffline
	}
	return "", nil
}

// submit is the one request protocol behind SubmitInto and SyncCall:
// gate → dispatch → complete, or resolve a translation fault and go
// round again. Queued dispatch pastes the CRB and drains the FIFO until
// it completes; sync dispatch runs it on an engine directly. The gates
// (Cancel, Deadline, device offline) are checked before every round and
// after every paste bounce, never mid-engine. retries and wasted carry
// fault rounds the request already spent elsewhere (a batch straggler's
// envelope round).
func (c *Context) submit(crb *CRB, csb *CSB, rep *Report, sync bool, retries int, wasted int64) error {
	d := c.dev
	tr := d.tracer.Load()
	span := c.startSpan(tr, crb, sync)
	var p *pendingCRB
	if !sync {
		p = getPending()
		defer d.release(p)
		p.crb, p.csb, p.span = crb, csb, span
	}
	live := func() (string, error) {
		if label, err := d.expired(crb); err != nil {
			return label, err
		}
		return d.offline()
	}
	var (
		label string
		err   error
	)
	for {
		if label, err = live(); err != nil {
			break
		}
		if sync {
			d.met.syncCalls.Inc()
			d.execute(c.pid, crb, csb, span)
		} else if label, err = c.paste(p, live); err == nil {
			label, err = c.await(p)
		}
		if err != nil {
			break
		}
		if csb.CC != CCTranslationFault {
			fillReport(d, crb, csb, rep, retries, wasted, p)
			break
		}
		retries++
		wasted += csb.Cycles.Total
		if label, err = c.faultRound(csb, span, retries); err != nil {
			break
		}
	}
	if p != nil && span != nil {
		span.PasteRejects = p.rejects
	}
	finishSpan(tr, span, label)
	return err
}

// paste offers p's envelope to the switchboard until it is accepted.
// After each bounce it re-checks live (the request's gates), then runs
// whatever it can drain from the FIFO — or, with the FIFO empty, backs
// off exponentially with jitter: the backlog is running on other
// goroutines, or the window's credits have leaked. A round that
// exhausts MaxPasteAttempts or MaxBackoffWaits fails with ErrDeviceBusy.
func (c *Context) paste(p *pendingCRB, live func() (string, error)) (string, error) {
	d := c.dev
	pol := d.cfg.Submit
	p.ran = false
	p.submitStart = time.Now()
	backoff := pol.BackoffBase
	for try, waits := 0, 0; try < pol.MaxPasteAttempts && waits < pol.MaxBackoffWaits; try++ {
		p.pastedAt = time.Now()
		err := d.sb.Paste(c.window, &p.wrapped)
		if err == nil {
			return "", nil
		}
		if errors.Is(err, vas.ErrWindowClosed) {
			return "window-closed", err
		}
		p.rejects++
		if label, err := live(); err != nil {
			return label, err
		}
		if pending := d.sb.Dequeue(); pending != nil {
			d.runOne(pending)
			continue
		}
		sleep := jitter(backoff)
		time.Sleep(sleep)
		waits++
		p.waits++
		p.backoff += sleep
		d.met.backoffWaits.Inc()
		backoff = min(2*backoff, pol.BackoffMax)
	}
	return "device-busy", fmt.Errorf("%w (%d rejects, %d backoff waits)", ErrDeviceBusy, p.rejects, p.waits)
}

// await drains the FIFO until p completes, running whatever it
// dequeues. An empty FIFO before the completion means another submitter
// dequeued p, so it waits for that run to finish. A run that wrote no
// CSB was an engine hang (runOne counted it; the watchdog reset
// reclaimed the window credit).
func (c *Context) await(p *pendingCRB) (string, error) {
	for {
		select {
		case <-p.done:
		default:
			if pending := c.dev.sb.Dequeue(); pending != nil {
				c.dev.runOne(pending)
				continue
			}
			<-p.done
		}
		if !p.ran {
			return "engine-hang", ErrEngineHang
		}
		return "", nil
	}
}

// faultRound is the OS side of a translation fault: count the round,
// trip ErrFaultStorm once retries reaches MaxFaultRounds, otherwise
// touch the faulting page so the resubmission finds it resident.
func (c *Context) faultRound(csb *CSB, span *telemetry.Span, retries int) (string, error) {
	d := c.dev
	d.met.faultRetries.Inc()
	if retries >= d.cfg.Submit.MaxFaultRounds {
		d.met.faultStorms.Inc()
		return "fault-storm", fmt.Errorf("%w (%d rounds, va %#x)", ErrFaultStorm, retries, csb.FaultVA)
	}
	start := time.Now()
	if err := d.mmu.Touch(c.pid, csb.FaultVA); err != nil {
		return csb.CC.String(), fmt.Errorf("nx: fault handler: %w", err)
	}
	if span != nil {
		// The OS interlude, attributed to the round that faulted.
		span.RecordStage(telemetry.StageFault, start, time.Now(), csb.Cycles.Total)
		span.Retries++
	}
	return "", nil
}

// SubmitInto pastes the CRB, runs an engine, and implements the OS side
// of the recovery protocol: on CCTranslationFault, touch the page and
// resubmit (bounded by SubmitPolicy.MaxFaultRounds — ErrFaultStorm
// beyond it); on paste rejection, drain the FIFO and retry with
// exponential backoff and jitter (bounded by MaxPasteAttempts /
// MaxBackoffWaits — ErrDeviceBusy beyond them). Deadlines, cancellation
// and device offlining are checked between rounds. Safe for concurrent
// callers: the model has no dedicated engine thread, so every submitter
// doubles as an engine driver — it drains the receive FIFO (running
// whatever it dequeues, its own request or a neighbour's) until its own
// request completes.
//
// The caller owns csb and rep (typically pooled or stack-resident): the
// engine writes the completion into csb and the accounting into rep, so
// the steady-state path allocates nothing. On error rep is untouched and
// csb holds the last completion written — zero-valued when the request
// never reached an engine.
func (c *Context) SubmitInto(crb *CRB, csb *CSB, rep *Report) error {
	return c.submit(crb, csb, rep, false, 0, 0)
}

// runOne is the dequeuer side of the queued protocol: it runs a
// dequeued request (or batch envelope), completes it at the switchboard
// and hands the owner its token. An injected engine hang drops the
// whole envelope without a CSB write: the OS watchdog resets the engine
// and completes the window credit so the queue keeps flowing, and the
// owner sees ran=false. The hang is modelled as an immediate drop — no
// wall-clock stall — to keep chaos tests deterministic and fast.
func (d *Device) runOne(wrapped *vas.CRB) {
	p := wrapped.Payload.(*pendingCRB)
	dequeuedAt := time.Now()
	if d.inj.Load().Decide(faultinject.EngineHang) {
		d.met.engineHangs.Inc()
		req := uint64(0)
		if p.crb != nil {
			req = p.crb.ReqID
		} else if len(p.batch) > 0 {
			req = p.batch[0].CRB.ReqID
		}
		if h := d.events.Load(); h != nil {
			h.bus.Publish(obs.Event{Type: obs.EventEngineHang, Device: h.label, Req: req,
				Detail: "request dropped without CSB write; watchdog reclaimed credit"})
		}
		p.queued(p.span, dequeuedAt)
		for i := range p.batch {
			p.queued(p.batch[i].span, dequeuedAt)
		}
	} else {
		queueWait := dequeuedAt.Sub(p.pastedAt)
		d.met.queueWaitUS.Observe(float64(queueWait) / float64(time.Microsecond))
		if p.batch != nil {
			d.runBatch(wrapped.PID, p, dequeuedAt, queueWait)
		} else {
			p.queued(p.span, dequeuedAt)
			d.execute(wrapped.PID, p.crb, p.csb, p.span)
			p.csb.QueueWait = queueWait
		}
		p.ran = true
	}
	d.sb.Complete(wrapped)
	p.done <- struct{}{}
}

// queued records the envelope's submit (first paste attempt to accepted
// paste) and FIFO (paste to dequeue) phases on s. The engine stays -1
// until execute runs the request.
func (p *pendingCRB) queued(s *telemetry.Span, dequeuedAt time.Time) {
	if s == nil {
		return
	}
	s.Engine = -1
	s.RecordStage(telemetry.StageSubmit, p.submitStart, p.pastedAt, 0)
	s.RecordStage(telemetry.StageFIFO, p.pastedAt, dequeuedAt, 0)
}

// execute runs one CRB on the device's next engine (round-robin: the
// engines behind one FIFO process concurrently — the z15 NXU pairs two
// compression cores behind one queue) and books the completion in the
// device counters and on the span. Every engine run goes through here.
func (d *Device) execute(pid nmmu.PID, crb *CRB, csb *CSB, s *telemetry.Span) {
	idx := int(d.nextEng.Add(1)-1) % len(d.engines)
	start := time.Now()
	d.engines[idx].ProcessInto(pid, crb, csb)
	m := d.met
	m.requests.Inc()
	m.inBytes.Add(int64(csb.SPBC))
	m.outBytes.Add(int64(csb.TPBC))
	m.bumpCodec(crb, csb)
	if cc := csb.CC; cc >= 0 && cc < ccCount {
		m.cc[cc].Inc()
	}
	if s != nil {
		s.Engine = idx
		s.ERATHits += csb.ERATHits
		s.ERATMisses += csb.ERATMisses
		s.DeviceCycles += csb.Cycles.Total
		s.InBytes = csb.SPBC
		s.OutBytes = csb.TPBC
		s.CC = csb.CC.String()
		s.RecordPipeline(start, time.Now(), pipelineStages(csb.Cycles))
	}
}

// pipelineStages flattens a modelled breakdown into span stages (only
// called on the traced path).
func pipelineStages(b pipeline.Breakdown) []telemetry.PipelineStage {
	return []telemetry.PipelineStage{
		{Stage: telemetry.StageSetup, Cycles: b.Setup},
		{Stage: telemetry.StageTranslate, Cycles: b.Translate},
		{Stage: telemetry.StageDHTGen, Cycles: b.DHTGen},
		{Stage: telemetry.StageDMAIn, Cycles: b.DMAIn},
		{Stage: telemetry.StageLZ, Cycles: b.LZ},
		{Stage: telemetry.StageEncode, Cycles: b.Encode},
		{Stage: telemetry.StageDecode, Cycles: b.Decode},
		{Stage: telemetry.StageDMAOut, Cycles: b.DMAOut},
		{Stage: telemetry.StageComplete, Cycles: b.Complete},
	}
}

// Compress runs a full user-level compression: map buffers, submit,
// handle faults, return output and accounting.
func (c *Context) Compress(input []byte, fc FuncCode, wrap Wrap, resident bool) ([]byte, *Report, error) {
	srcVA, err := c.MapBuffer(len(input), resident)
	if err != nil {
		return nil, nil, err
	}
	capOut := 2*len(input) + 1024
	dstVA, err := c.MapBuffer(capOut, resident)
	if err != nil {
		return nil, nil, err
	}
	crb := &CRB{
		Func:      fc,
		Wrap:      wrap,
		Input:     input,
		SourceVA:  srcVA,
		TargetVA:  dstVA,
		TargetCap: capOut,
	}
	csb, rep, err := c.Submit(crb)
	if err != nil {
		return nil, rep, err
	}
	if csb.CC != CCSuccess {
		return nil, rep, ccError(fc.String(), csb)
	}
	return csb.Output, rep, nil
}

// Decompress runs a full user-level decompression.
func (c *Context) Decompress(input []byte, wrap Wrap, maxOutput int, resident bool) ([]byte, *Report, error) {
	srcVA, err := c.MapBuffer(len(input), resident)
	if err != nil {
		return nil, nil, err
	}
	if maxOutput <= 0 {
		maxOutput = 64 * len(input)
	}
	dstVA, err := c.MapBuffer(maxOutput, resident)
	if err != nil {
		return nil, nil, err
	}
	crb := &CRB{
		Func:      FCDecompress,
		Wrap:      wrap,
		Input:     input,
		SourceVA:  srcVA,
		TargetVA:  dstVA,
		TargetCap: maxOutput,
		MaxOutput: maxOutput,
	}
	csb, rep, err := c.Submit(crb)
	if err != nil {
		return nil, rep, err
	}
	if csb.CC != CCSuccess {
		return nil, rep, ccError("decompress", csb)
	}
	return csb.Output, rep, nil
}

// Submit exposes the raw CRB path for callers that build their own
// request blocks (the canned-DHT experiment, 842, corrupt-data tests).
// It allocates the CSB and Report per call; allocation-free callers use
// SubmitInto with pooled blocks instead. On error the returned CSB is
// non-nil and holds the last completion written — zero-valued when the
// request never reached an engine.
func (c *Context) Submit(crb *CRB) (*CSB, *Report, error) {
	return c.submitNew(crb, false)
}

// SyncCall submits a request through the synchronous-instruction
// interface (the z15 integration style): no VAS paste, no queue — the
// calling CPU dispatches the engine directly and waits. The rest of the
// protocol is the queued one: the same gates before every round, and
// the fault protocol (the instruction completes partially and software
// retries after touching the page). Returns an error on devices without
// a synchronous path.
func (c *Context) SyncCall(crb *CRB) (*CSB, *Report, error) {
	if c.dev.cfg.Engine.Pipeline.SyncSetupCycles <= 0 {
		return nil, nil, fmt.Errorf("nx: %s has no synchronous submission interface", c.dev.cfg.Engine.Pipeline.Name)
	}
	crb.SyncSubmit = true
	return c.submitNew(crb, true)
}

// submitNew runs submit on freshly allocated blocks, Submit's contract.
func (c *Context) submitNew(crb *CRB, sync bool) (*CSB, *Report, error) {
	csb, rep := &CSB{}, &Report{}
	if err := c.submit(crb, csb, rep, sync, 0, 0); err != nil {
		return csb, nil, err
	}
	return csb, rep, nil
}

// Device returns the device this context is bound to.
func (c *Context) Device() *Device { return c.dev }
