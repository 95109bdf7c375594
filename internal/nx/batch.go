package nx

import (
	"errors"
	"time"

	"nxzip/internal/nmmu"
	"nxzip/internal/telemetry"
)

// Batched small-request submission.
//
// The per-request cost of the queued path — a paste, a send-window
// credit, a FIFO slot, and a drain round — is fixed, so it dominates once
// payloads shrink to a few KiB (the paper's latency-vs-size curves show
// exactly this wall). Software batches: one switchboard envelope carries
// a whole slice of requests, paying the submission overhead once, and the
// dequeuer runs the entries back to back across the device's engines the
// way a driver services a ring of descriptors.

// BatchEntry is one request of a batch: the caller embeds the request
// and completion blocks by value so a batch is a single contiguous
// allocation (or a pooled slice) rather than N boxed requests.
type BatchEntry struct {
	CRB CRB
	CSB CSB
	Rep Report
	// Err reports per-entry submission-protocol failures (a fault
	// resubmit that exhausted its budget, a failed touch). Data-plane
	// completions are CSB.CC, exactly as for single submission.
	Err error

	// span is the per-entry trace record when a tracer is installed: the
	// shared submit/FIFO phases of the envelope plus this entry's own
	// pipeline breakdown, so chained-setup savings are visible per entry.
	span *telemetry.Span
}

// errNoLiveEntry ends a batch submission whose entries all tripped their
// gates before the envelope was pasted: there is nothing left to carry.
var errNoLiveEntry = errors.New("nx: no live batch entry")

// SubmitBatch pastes the whole batch as one switchboard envelope — one
// paste, one credit, one FIFO round for len(entries) requests — and
// waits for the dequeuer to run every entry. Per-entry Deadline/Cancel
// gates are checked before the paste and after every paste bounce:
// entries whose gate tripped complete with ErrDeadlineExceeded or
// ErrCanceled and never reach an engine; once the envelope is pasted
// the batch runs as one unit. An entry that completes with
// CCTranslationFault is a straggler: its page is touched and it
// resubmits alone through the single-request protocol, its batch round
// counting toward the fault budget, and its Err carries any terminal
// submission failure. The envelope's paste bounces and backoff waits
// are charged to the first entry that completed in it. An injected
// engine hang drops the whole batch (ErrEngineHang), mirroring a wedged
// descriptor ring.
func (c *Context) SubmitBatch(entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	d := c.dev
	tr := d.tracer.Load()
	for i := range entries {
		entries[i].span = c.startSpan(tr, &entries[i].CRB, false)
	}
	// finishSpans closes every still-open entry span, stamping label.
	finishSpans := func(label string) {
		for i := range entries {
			finishSpan(tr, entries[i].span, label)
			entries[i].span = nil
		}
	}
	// live fails the entries whose gates tripped; the envelope itself
	// dies with the device, or when no entry is left to carry.
	live := func() (string, error) {
		n := 0
		for i := range entries {
			en := &entries[i]
			if en.Err != nil {
				continue
			}
			var label string
			if label, en.Err = d.expired(&en.CRB); en.Err != nil {
				finishSpan(tr, en.span, label)
				en.span = nil
				continue
			}
			n++
		}
		if n == 0 {
			return "", errNoLiveEntry
		}
		return d.offline()
	}
	p := getPending()
	defer d.release(p)
	p.batch = entries
	label, err := live()
	if err == nil {
		if label, err = c.paste(p, live); err == nil {
			label, err = c.await(p)
		}
	}
	if err == errNoLiveEntry {
		return nil
	}
	if err != nil {
		finishSpans(label)
		return err
	}
	charged := false
	for i := range entries {
		en := &entries[i]
		switch {
		case en.Err != nil:
			// Its gate tripped before the paste: never ran, CSB is zero.
		case en.CSB.CC == CCTranslationFault:
			// The rest of the batch is done, so the straggler resubmits
			// alone with full setup and completion. Its batch span closes
			// on the fault; the resubmission emits its own span under the
			// same ReqID.
			_, en.Err = c.faultRound(&en.CSB, en.span, 1)
			finishSpan(tr, en.span, "")
			en.span = nil
			if en.Err == nil {
				en.CRB.Chained, en.CRB.ChainedComplete = false, false
				en.Err = c.submit(&en.CRB, &en.CSB, &en.Rep, false, 1, en.CSB.Cycles.Total)
			}
		case charged:
			fillReport(d, &en.CRB, &en.CSB, &en.Rep, 0, 0, nil)
		default:
			fillReport(d, &en.CRB, &en.CSB, &en.Rep, 0, 0, p)
			charged = true
		}
	}
	finishSpans("")
	return nil
}

// runBatch is the dequeuer side of SubmitBatch: every live entry runs
// back to back, spread round-robin across the device's engines. The
// first pays the envelope's full paste-to-dispatch setup and the rest
// chain behind it; the last entry's CSB writeback doubles as the
// envelope completion, so earlier entries only store their CSB. Entries
// whose gate tripped before the paste carry an Err and never run.
func (d *Device) runBatch(pid nmmu.PID, p *pendingCRB, dequeuedAt time.Time, queueWait time.Duration) {
	last := -1
	for i := range p.batch {
		if p.batch[i].Err == nil {
			last = i
		}
	}
	chained := false
	for i := range p.batch {
		en := &p.batch[i]
		if en.Err != nil {
			continue
		}
		en.CRB.Chained = chained
		en.CRB.ChainedComplete = i != last
		chained = true
		p.queued(en.span, dequeuedAt)
		d.execute(pid, &en.CRB, &en.CSB, en.span)
		en.CSB.QueueWait = queueWait
	}
}
