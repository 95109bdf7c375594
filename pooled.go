package nxzip

// pooled.go is the allocation-free one-shot request path. The queued
// submission protocol was already cheap in work — one paste, one FIFO
// round — but every request minted a CRB, a CSB, a Report, a Metrics, an
// output buffer, and a pair of fresh VA mappings. At small payloads that
// garbage, not the engine, sets the request rate. This file pools the
// request blocks (sync.Pool), reuses VA spans through the context arena
// (Context.AcquireVA/ReleaseVA), and threads caller-owned destination
// buffers through CRB.Target so a steady-state request touches the
// allocator zero times.
//
// Aliasing rules: the pooled blocks never escape — CompressGzipInto and
// friends return bytes backed by the *caller's* dst (or a grown
// replacement of it), and the copying wrappers (CompressGzip et al.)
// return an exact-size copy while the scratch backing stays in the pool.
// Nothing handed to the caller is ever put back in a pool.

import (
	"sync"

	"nxzip/internal/nx"
	"nxzip/internal/topology"
)

// oneShot bundles one request's reusable blocks: the CRB/CSB/Report
// trio, plus a pool-owned scratch buffer used as the engine target by
// the copying (non-Into) wrappers.
type oneShot struct {
	crb nx.CRB
	csb nx.CSB
	rep nx.Report
	buf []byte // scratch target backing; never escapes the pool
}

var oneShotPool = sync.Pool{New: func() any { return new(oneShot) }}

func getOneShot() *oneShot { return oneShotPool.Get().(*oneShot) }

// putOneShot returns os to the pool with every caller-visible reference
// dropped, so a pooled entry can neither pin request data past the call
// nor alias bytes the caller now owns. buf is pool-owned scratch and is
// deliberately kept (that retention is the point of the pool).
func putOneShot(os *oneShot) {
	buf := os.buf
	*os = oneShot{buf: buf}
	oneShotPool.Put(os)
}

// submitCompress is one device attempt of a pooled compression request
// on ctx, using os's blocks and a caller-owned destination: the engine
// appends the frame into dst[:0], growing the backing only when the
// frame outruns cap(dst), and m receives the attempt's accounting. VA
// spans come from the context arena, so the steady state performs no
// MMU mapping work and no allocation.
func (a *Accelerator) submitCompress(ctx *nx.Context, os *oneShot, dst, src []byte, wrap nx.Wrap, m *Metrics, req uint64, hop int) ([]byte, error) {
	srcVA, err := ctx.AcquireVA(len(src))
	if err != nil {
		return nil, err
	}
	defer ctx.ReleaseVA(srcVA)
	capOut := 2*len(src) + 1024
	dstVA, err := ctx.AcquireVA(capOut)
	if err != nil {
		return nil, err
	}
	defer ctx.ReleaseVA(dstVA)
	os.crb = nx.CRB{
		Func: a.funcCode(), Wrap: wrap, Input: src,
		SourceVA: srcVA, TargetVA: dstVA, TargetCap: capOut,
		Target: dst, ReqID: req, Hop: hop,
	}
	if os.crb.Func == nx.FCCompressCannedDHT {
		os.crb.DHT = a.canned
	}
	err = ctx.SubmitInto(&os.crb, &os.csb, &os.rep)
	fillMetrics(m, &os.rep, &os.csb)
	if err != nil {
		return nil, err
	}
	if os.csb.CC != nx.CCSuccess {
		return nil, ccFail("compress", &os.csb)
	}
	return os.csb.Output, nil
}

// submitDecompress is submitCompress's inflate twin: the decoded
// plaintext is appended into dst[:0] (via the inflater's destination
// threading), bounded by maxOutput.
func (a *Accelerator) submitDecompress(ctx *nx.Context, os *oneShot, dst, src []byte, wrap nx.Wrap, maxOutput int, m *Metrics, req uint64, hop int) ([]byte, error) {
	srcVA, err := ctx.AcquireVA(len(src))
	if err != nil {
		return nil, err
	}
	defer ctx.ReleaseVA(srcVA)
	dstVA, err := ctx.AcquireVA(maxOutput)
	if err != nil {
		return nil, err
	}
	defer ctx.ReleaseVA(dstVA)
	os.crb = nx.CRB{
		Func: nx.FCDecompress, Wrap: wrap, Input: src,
		SourceVA: srcVA, TargetVA: dstVA, TargetCap: maxOutput, MaxOutput: maxOutput,
		Target: dst, ReqID: req, Hop: hop,
	}
	err = ctx.SubmitInto(&os.crb, &os.csb, &os.rep)
	fillMetrics(m, &os.rep, &os.csb)
	if err != nil {
		return nil, err
	}
	if os.csb.CC != nx.CCSuccess {
		return nil, ccFail("decompress", &os.csb)
	}
	return os.csb.Output, nil
}

// compressInto is one pooled compression request through nctx: the
// request lifecycle over submitCompress, with the software encoder's
// frame copied into dst[:0] when no device can serve it.
func (a *Accelerator) compressInto(nctx *topology.Context, op string, os *oneShot, dst, src []byte, wrap nx.Wrap, m *Metrics) ([]byte, error) {
	var out []byte
	c := call{a: a, nctx: nctx, op: op, need: deflateNeed}
	err := c.run(m,
		func(ctx *nx.Context, req uint64, hop int) (err error) {
			out, err = a.submitCompress(ctx, os, dst, src, wrap, m, req, hop)
			return err
		},
		func() error {
			soft, err := a.softCompress(src, wrap, m)
			if err == nil {
				out = append(dst[:0], soft...)
			}
			return err
		})
	return out, err
}

// decompressInto is compressInto's inflate twin, bounded by maxOutput.
func (a *Accelerator) decompressInto(nctx *topology.Context, op string, os *oneShot, dst, src []byte, wrap nx.Wrap, maxOutput int, m *Metrics) ([]byte, error) {
	var out []byte
	c := call{a: a, nctx: nctx, op: op, need: deflateNeed}
	err := c.run(m,
		func(ctx *nx.Context, req uint64, hop int) (err error) {
			out, err = a.submitDecompress(ctx, os, dst, src, wrap, maxOutput, m, req, hop)
			return err
		},
		func() error {
			soft, err := a.softDecompress(src, wrap, maxOutput, m)
			if err == nil {
				out = append(dst[:0], soft...)
			}
			return err
		})
	return out, err
}

// CompressGzipInto compresses src into a gzip stream appended to
// dst[:0], returning the frame. The result aliases dst unless the frame
// outran cap(dst), in which case it is backed by a grown replacement —
// standard append semantics, so always use the returned slice. With
// TableFixed or TableCanned and an adequately sized dst, the steady
// state allocates nothing (TableDynamic samples a per-request Huffman
// table and therefore allocates; the software-fallback and re-dispatch
// error paths allocate freely). A nil m discards the accounting.
func (a *Accelerator) CompressGzipInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.compressIntoPooled(dst, src, nx.WrapGzip, m)
}

// CompressZlibInto is CompressGzipInto with zlib framing.
func (a *Accelerator) CompressZlibInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.compressIntoPooled(dst, src, nx.WrapZlib, m)
}

// DecompressGzipInto inflates a (single-member) gzip stream into
// dst[:0] with the same append semantics as CompressGzipInto. The
// output bound is the larger of the DecompressGzip heuristic and
// cap(dst); pass an adequately sized dst both for the bound you want
// and for the zero-allocation steady state.
func (a *Accelerator) DecompressGzipInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.decompressIntoPooled(dst, src, nx.WrapGzip, m)
}

// DecompressZlibInto is DecompressGzipInto for zlib streams.
func (a *Accelerator) DecompressZlibInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.decompressIntoPooled(dst, src, nx.WrapZlib, m)
}

func (a *Accelerator) compressIntoPooled(dst, src []byte, wrap nx.Wrap, m *Metrics) ([]byte, error) {
	var scratch Metrics
	if m == nil {
		m = &scratch
	}
	os := getOneShot()
	defer putOneShot(os)
	return a.compressInto(a.nctx, "compress", os, dst, src, wrap, m)
}

func (a *Accelerator) decompressIntoPooled(dst, src []byte, wrap nx.Wrap, m *Metrics) ([]byte, error) {
	var scratch Metrics
	if m == nil {
		m = &scratch
	}
	os := getOneShot()
	defer putOneShot(os)
	return a.decompressInto(a.nctx, "decompress", os, dst, src, wrap, max(inflateBound(src, 0), cap(dst)), m)
}
