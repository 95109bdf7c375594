package nxzip

// lifecycle.go is the one request lifecycle every public path runs. In
// the paper every NX operation is the same user-mode request — paste a
// CRB, the engine runs it, read the CSB — and streams are composed from
// those same requests by the software stack. Here every root-level
// request, one-shot or stream segment, is one stack-held call: begin
// mints its RequestID and presents it at the admission gate; pick
// chooses a healthy capable device (or the stream's pinned one); settle
// ends each device attempt, feeding the health scoreboard and either
// folding the winner's cost or re-dispatching a device-local failure;
// software completes the request on the software codec when no device
// can; and finish writes the digest, bumps the tenant series and
// releases the admission slot. run drives those steps for every caller
// that can hand over its device attempt as a closure; CompressBatch
// drives them directly, one call per request across dispatch waves.

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/flightrec"
	"nxzip/internal/nx"
	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
)

// deflateNeed is the codec requirement of every DEFLATE entry point.
var deflateNeed = nx.Codecs(nx.CodecDeflate)

// Digest sites of a request that never completed on a device.
const (
	siteAdmission = "admission"
	siteSoftware  = "software"
)

// failoverEligible reports whether a device-path error should be
// absorbed by re-dispatch/fallback rather than surfaced: transient
// device-local failures (nx.Retryable), plus error completion codes that
// an injected flake can force on intact input (data check, invalid CRB,
// CRC mismatch) — for genuinely bad input the software path fails too
// and its error is authoritative. Deadline and cancellation failures
// surface directly: that budget belongs to the caller.
func failoverEligible(err error) bool {
	return nx.Retryable(err) ||
		errors.Is(err, nx.ErrDataCorrupt) ||
		errors.Is(err, nx.ErrInvalidCRB)
}

// ccFail wraps a non-OK completion into an errors.Is-able error carrying
// the CSB detail.
func ccFail(op string, csb *nx.CSB) error {
	if csb.Detail != "" {
		return fmt.Errorf("nxzip: %s: %w: %s", op, csb.CC.Err(), csb.Detail)
	}
	return fmt.Errorf("nxzip: %s: %w", op, csb.CC.Err())
}

// call is one root-level request. The caller fills the first block;
// the steps own the rest. A call lives on its caller's stack (or, for a
// batch, inside its BatchRequest), so the lifecycle itself allocates
// nothing.
type call struct {
	a    *Accelerator
	nctx *topology.Context // dispatch context: the view's, or a worker's
	op   string            // digest op name
	need nx.CodecSet       // devices must advertise every codec in need
	// sticky routes through the stream pick: dev is the pinned device
	// going in and the device that last ran the request coming out.
	sticky bool
	// resumable narrows re-dispatch to nx.Retryable failures: once the
	// engine has fed a resume session its state has advanced, and a
	// replay elsewhere would double-feed the input.
	resumable bool

	rec          *flightrec.Recorder
	req          uint64
	start        time.Time
	ticket       *admission.Ticket
	brownout     bool   // admission degraded the request to software
	dev          int    // device of the latest attempt
	site         string // digest device label
	attempts     int    // device attempts made
	redispatches int    // failed attempts absorbed by re-dispatch
	wasted       Metrics
}

// begin mints the RequestID and presents the request at the gate. A
// Deadline or Cancel that has already tripped fails the request before
// admission. With noWait a saturated gate returns admission.ErrWouldWait
// unfinished, so the caller can free slots it holds and admit again.
func (c *call) begin(m *Metrics, deadline time.Time, cancel <-chan struct{}, noWait bool) error {
	c.rec = c.a.recorder()
	c.req = nextReq()
	c.start = time.Now()
	if err := expired(deadline, cancel); err != nil {
		return c.finish(m, fmt.Errorf("nxzip: %s: %w", c.op, err))
	}
	return c.admit(m, deadline, cancel, noWait)
}

// admit is begin's gate step. A shed costs nothing downstream (digested
// as OutcomeShed at the admission site); a brownout degrade skips the
// device attempts and goes straight to software; an admit holds a slot
// until finish.
func (c *call) admit(m *Metrics, deadline time.Time, cancel <-chan struct{}, noWait bool) error {
	ticket, dec, err := c.a.admit(deadline, cancel, noWait)
	if errors.Is(err, admission.ErrWouldWait) {
		return err
	}
	if err != nil {
		c.site = siteAdmission
		return c.finish(m, err)
	}
	c.ticket = ticket
	c.brownout = dec == admission.DecisionDegrade
	return nil
}

// expired reports a tripped Deadline or Cancel gate.
func expired(deadline time.Time, cancel <-chan struct{}) error {
	if cancel != nil {
		select {
		case <-cancel:
			return nx.ErrCanceled
		default:
		}
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return nx.ErrDeadlineExceeded
	}
	return nil
}

// pick chooses and acquires the device of the next attempt: up to one
// attempt per device plus one. ok=false sends the request to software —
// brownout, budget spent, or no healthy capable device (with
// ErrNoCapableDevice the pool has the wrong hardware entirely).
func (c *call) pick() (i int, ok bool) {
	if c.brownout || c.attempts > c.nctx.Size() {
		return 0, false
	}
	var err error
	if c.sticky {
		i, err = c.nctx.PickSticky(c.need, c.dev, c.attempts > 0)
	} else {
		i, err = c.nctx.PickIndexCodec(c.need)
	}
	if err != nil {
		return 0, false
	}
	c.nctx.AcquireIndex(i)
	c.dev, c.site = i, c.a.node.Label(i)
	c.attempts++
	return i, true
}

// settle ends the attempt on device i, whose accounting is in m. It
// reports whether the request should re-dispatch. On success the cost
// of earlier failed attempts folds into m; on failure m's cost joins
// that ledger, and an eligible failure publishes EventFailover.
func (c *call) settle(i int, m *Metrics, err error) (retry bool) {
	c.nctx.ReleaseIndexReq(i, err, c.req)
	if err == nil {
		m.add(&c.wasted)
		m.Redispatches = c.redispatches
		return false
	}
	m.InBytes, m.OutBytes = 0, 0 // a failed attempt's bytes are not the request's
	c.wasted.add(m)
	if c.resumable && !nx.Retryable(err) || !c.resumable && !failoverEligible(err) {
		return false
	}
	c.redispatches++
	if bus := c.a.node.Bus(); bus != nil {
		bus.Publish(obs.Event{Type: obs.EventFailover, Device: c.site, Req: c.req,
			Detail: fmt.Sprintf("re-dispatching after: %v", err)})
	}
	return true
}

// software completes the request on the software path; soft fills m.
// Its verdict is authoritative: a software failure (genuinely corrupt
// input) is the real answer, not the device flake before it.
func (c *call) software(m *Metrics, soft func() error) error {
	c.site = siteSoftware
	if err := soft(); err != nil {
		return c.finish(m, err)
	}
	c.a.met.fallback(c.need)
	if bus := c.a.node.Bus(); bus != nil {
		detail := fmt.Sprintf("software path after %d re-dispatches", c.redispatches)
		if c.brownout {
			detail = "software path by brownout: admission degraded the request under overload"
		}
		bus.Publish(obs.Event{Type: obs.EventFallback, Req: c.req, Detail: detail})
	}
	m.add(&c.wasted)
	m.Degraded = true
	m.Redispatches = c.redispatches
	return c.finish(m, nil)
}

// finish ends the request: a failed request's m becomes the cost of
// every attempt it made; the digest and tenant series record the
// outcome; the admission slot is released; errors carry "req N:" when
// the flight recorder can resolve it.
func (c *call) finish(m *Metrics, err error) error {
	outcome := telemetry.OutcomeOK
	switch {
	case err != nil:
		*m = c.wasted
		m.Redispatches = c.redispatches
		outcome = telemetry.OutcomeError
		if c.site == siteAdmission {
			outcome = telemetry.OutcomeShed
		}
	case c.site == siteSoftware:
		outcome = telemetry.OutcomeDegraded
	}
	if c.redispatches > 0 {
		c.a.met.redispatches.Add(int64(c.redispatches))
	}
	attempts := c.attempts
	if c.site == siteSoftware {
		attempts = max(attempts, 1)
	}
	c.a.completeDigest(c.rec, c.req, c.op, c.need.String(), c.site, m, c.start, attempts, outcome)
	c.ticket.Release()
	if err != nil && c.rec != nil {
		err = reqError(c.req, err)
	}
	return err
}

// run drives the whole lifecycle for a caller whose device attempt is a
// closure: dev runs one attempt on ctx, stamping (req, hop) into its CRB
// so the attempt's span, the failover events and any quarantine chain
// back to one request; soft is the software path. Both report into m,
// which the closures capture — handing a pointer to a func value would
// move it to the heap.
func (c *call) run(m *Metrics, dev func(ctx *nx.Context, req uint64, hop int) error, soft func() error) error {
	if err := c.begin(m, time.Time{}, nil, false); err != nil {
		return err
	}
	for {
		i, ok := c.pick()
		if !ok {
			return c.software(m, soft)
		}
		*m = Metrics{}
		err := dev(c.nctx.At(i), c.req, c.attempts-1)
		if !c.settle(i, m, err) {
			return c.finish(m, err)
		}
	}
}

// runCopy is run for the copying entry points: the attempt returns its
// output, and the request gets fresh Metrics (always non-nil, carrying
// the wasted cost on error).
func (c *call) runCopy(dev func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error), soft func(m *Metrics) ([]byte, error)) ([]byte, *Metrics, error) {
	m := new(Metrics)
	var out []byte
	err := c.run(m,
		func(ctx *nx.Context, req uint64, hop int) (err error) {
			out, err = dev(ctx, m, req, hop)
			return err
		},
		func() (err error) {
			out, err = soft(m)
			return err
		})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}

// submitCRB runs one device attempt of a plain CRB on ctx, filling m
// from its report.
func submitCRB(ctx *nx.Context, crb *nx.CRB, what string, m *Metrics) ([]byte, error) {
	csb, rep, err := ctx.Submit(crb)
	fillMetrics(m, rep, csb)
	if err != nil {
		return nil, err
	}
	if csb.CC != nx.CCSuccess {
		return nil, ccFail(what, csb)
	}
	return csb.Output, nil
}
