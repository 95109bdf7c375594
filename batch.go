package nxzip

// batch.go is the public face of batched small-request submission. The
// per-request overhead of the queued path — paste, credit, FIFO slot,
// drain round, dispatch pick — is fixed, so at few-KiB payloads it
// dominates the engine's actual work (the paper's latency-vs-size curves
// show the wall). CompressBatch amortizes it: requests are grouped by
// the device the dispatch policy picks, each device's group rides ONE
// switchboard envelope (one paste, one credit, one FIFO round), and the
// groups run concurrently across the node. Experiment E21 measures the
// crossover against the per-request path and software.

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/nx"
)

// BatchRequest is one request of a CompressBatch call.
type BatchRequest struct {
	// Src is the payload to compress.
	Src []byte
	// Deadline, when non-zero, bounds this request's wall-clock,
	// including admission queueing, paste backoff and the software
	// fallback: once it passes, the request fails with
	// nx.ErrDeadlineExceeded at the next checkpoint instead of consuming
	// further capacity. That budget belongs to the caller, so expiry
	// surfaces directly — it is never absorbed by the fallback.
	Deadline time.Time
	// Cancel, when non-nil, abandons the request when the channel
	// closes, checked at the same points as Deadline (failing with
	// nx.ErrCanceled).
	Cancel <-chan struct{}
	// Dst, when non-nil, is a caller-owned output backing with the
	// append semantics of CompressGzipInto; Out may alias it.
	Dst []byte
	// Out receives the gzip frame.
	Out []byte
	// Metrics receives the request accounting. The first request of each
	// device's group additionally carries the group-level paste
	// accounting (PasteRejects/BackoffWaits/BackoffTime) — there is one
	// paste per device per dispatch wave, not one per request. (A clean
	// batch without admission is a single wave; with admission enabled a
	// batch larger than the gate's in-flight ceiling dispatches in waves
	// of at most that many requests, and requests whose device failed
	// re-dispatch in a further wave.)
	Metrics Metrics
	// Err reports a terminal per-request failure. Requests whose device
	// flaked mid-batch re-dispatch to another device or are transparently
	// completed by the software fallback with Metrics.Degraded set, so
	// Err is non-nil only when
	// the input itself is at fault (or the fallback failed too), the
	// Deadline/Cancel gate tripped, or the admission gate shed the
	// request under overload (admission.ErrOverloaded).
	Err error
	// Device is the node-local index of the device that served this
	// request, -1 when the software fallback completed it. E21 uses it to
	// reconstruct each device's share of the batch timeline.
	Device int

	// c is the request's lifecycle, carried across dispatch waves: a
	// device failure re-dispatches in the next wave before the software
	// fallback takes over.
	c call
}

// CompressBatch compresses every request into a gzip frame using the
// configured table mode, amortizing submission overhead: one paste and
// one FIFO round per device per batch instead of one per request.
// Results and per-request errors land on the requests themselves. Nil
// requests are skipped. Like the one-shot paths, device-local failures
// degrade to the software encoder rather than failing the batch.
func (a *Accelerator) CompressBatch(reqs []*BatchRequest) {
	if len(reqs) == 0 {
		return
	}
	n := a.nctx.Size()
	b := &batchWaves{a: a, groups: make([][]nx.BatchEntry, n), owners: make([][]*BatchRequest, n)}
	for _, r := range reqs {
		if r == nil {
			continue
		}
		r.Err, r.Device = nil, -1
		r.c = call{a: a, nctx: a.nctx, op: "batch-compress", need: deflateNeed}
		// Admission tickets are held per dispatch wave, not for the whole
		// batch: a batch larger than the gate's in-flight ceiling would
		// otherwise saturate the gate with its own earlier tickets. Requests
		// present with NoWait; when the gate reports full, the waves
		// accumulated so far run to completion — releasing their tickets —
		// and the request presents again, this time willing to queue: any
		// further wait is genuine contention with other traffic.
		err := r.c.begin(&r.Metrics, r.Deadline, r.Cancel, true)
		if errors.Is(err, admission.ErrWouldWait) {
			b.flush()
			err = r.c.admit(&r.Metrics, r.Deadline, r.Cancel, false)
		}
		if err != nil {
			r.Err = err
			continue
		}
		b.route(r)
	}
	b.flush()
}

// batchWaves accumulates admitted requests into per-device groups, one
// switchboard envelope per device per wave.
type batchWaves struct {
	a      *Accelerator
	groups [][]nx.BatchEntry
	owners [][]*BatchRequest
	retry  []*BatchRequest // failed over: next wave
	soft   []*BatchRequest // no device: software, after the waves
}

// route places r's next attempt in the current wave, or queues it for
// the software path when pick finds no device (or browned out).
func (b *batchWaves) route(r *BatchRequest) {
	i, ok := r.c.pick()
	if !ok {
		b.soft = append(b.soft, r)
		return
	}
	r.Metrics = Metrics{}
	ctx := b.a.nctx.At(i)
	capOut := 2*len(r.Src) + 1024
	srcVA, err := ctx.AcquireVA(len(r.Src))
	if err != nil {
		b.settle(r, i, err)
		return
	}
	dstVA, err := ctx.AcquireVA(capOut)
	if err != nil {
		ctx.ReleaseVA(srcVA)
		b.settle(r, i, err)
		return
	}
	en := nx.BatchEntry{CRB: nx.CRB{
		Func: b.a.funcCode(), Wrap: nx.WrapGzip, Input: r.Src,
		SourceVA: srcVA, TargetVA: dstVA, TargetCap: capOut,
		Target: r.Dst, ReqID: r.c.req, Hop: r.c.attempts - 1,
		Deadline: r.Deadline, Cancel: r.Cancel,
	}}
	if en.CRB.Func == nx.FCCompressCannedDHT {
		en.CRB.DHT = b.a.canned
	}
	b.groups[i] = append(b.groups[i], en)
	b.owners[i] = append(b.owners[i], r)
}

// settle ends r's attempt on device i: done, failed, or re-dispatched
// in the next wave.
func (b *batchWaves) settle(r *BatchRequest, i int, err error) {
	switch {
	case r.c.settle(i, &r.Metrics, err):
		b.retry = append(b.retry, r)
	case err == nil:
		r.Device = i
		r.Err = r.c.finish(&r.Metrics, nil)
	default:
		r.Err = r.c.finish(&r.Metrics, err)
	}
}

// flush runs dispatch waves until no request is left to re-dispatch,
// then completes the software-bound requests, so every ticket the batch
// holds is released when it returns.
func (b *batchWaves) flush() {
	for {
		retry := b.retry
		b.retry = nil
		for _, r := range retry {
			b.route(r)
		}
		if !b.pending() {
			break
		}
		errs := b.a.nctx.SubmitBatch(b.groups)
		for i := range b.groups {
			ctx := b.a.nctx.At(i)
			for k := range b.groups[i] {
				en, r := &b.groups[i][k], b.owners[i][k]
				ctx.ReleaseVA(en.CRB.SourceVA)
				ctx.ReleaseVA(en.CRB.TargetVA)
				err := errs[i] // device-level failure drops the whole group
				if err == nil {
					err = en.Err
				}
				if err == nil && en.CSB.CC != nx.CCSuccess {
					err = ccFail("batch compress", &en.CSB)
				}
				fillMetrics(&r.Metrics, &en.Rep, &en.CSB)
				if err == nil {
					r.Out = en.CSB.Output
				}
				b.settle(r, i, err)
			}
			b.groups[i] = b.groups[i][:0]
			b.owners[i] = b.owners[i][:0]
		}
	}
	for _, r := range b.soft {
		r.Err = r.c.software(&r.Metrics, func() error {
			if err := expired(r.Deadline, r.Cancel); err != nil {
				return fmt.Errorf("nxzip: %s: %w", r.c.op, err)
			}
			out, err := b.a.softCompress(r.Src, nx.WrapGzip, &r.Metrics)
			if err == nil {
				r.Out = append(r.Dst[:0], out...)
			}
			return err
		})
	}
	b.soft = b.soft[:0]
}

func (b *batchWaves) pending() bool {
	for _, g := range b.groups {
		if len(g) > 0 {
			return true
		}
	}
	return false
}
