package nxzip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/nx"
)

// StreamReader inflates a single-member gzip stream incrementally through
// the accelerator: each underlying read becomes one resumable
// decompression request carrying the engine's suspend/resume state, so
// arbitrarily large streams decode in bounded memory with per-request
// device accounting. This is the decompression counterpart of
// StreamWriter.
//
// The requests of one stream share the engine's suspend/resume state, so
// on a multi-device node the reader pins to one device at construction;
// each request is still admitted, digested and counted on its own.
type StreamReader struct {
	acc    *Accelerator
	dev    int // pinned device (resume state stays put); -1 until placed
	src    io.Reader
	state  *nx.DecompState
	inbuf  []byte
	outbuf []byte
	outPos int
	crc    checksum.CRC32
	isize  uint32

	headerDone  bool
	srcExhaust  bool
	trailerDone bool
	err         error

	// Stats accumulates device accounting across requests.
	Stats Metrics
}

// DefaultReadChunk is the compressed-bytes request size of StreamReader.
const DefaultReadChunk = 256 << 10

// NewStreamReader returns an incremental reader over a single-member gzip
// stream. maxOutput bounds the total plaintext (0 = 1 GiB).
func (a *Accelerator) NewStreamReader(src io.Reader, maxOutput int) *StreamReader {
	return &StreamReader{
		acc:   a,
		dev:   a.stickyPin(),
		src:   src,
		state: nx.NewDecompState(maxOutput),
		inbuf: make([]byte, 0, DefaultReadChunk),
	}
}

// Read implements io.Reader.
func (r *StreamReader) Read(p []byte) (int, error) {
	for {
		if r.outPos < len(r.outbuf) {
			n := copy(p, r.outbuf[r.outPos:])
			r.outPos += n
			return n, nil
		}
		if r.err != nil {
			return 0, r.err
		}
		if r.trailerDone {
			return 0, io.EOF
		}
		if err := r.fill(); err != nil {
			r.err = err
			return 0, err
		}
	}
}

// fill pulls one chunk of compressed input and runs a resume request.
func (r *StreamReader) fill() error {
	// Top up the input buffer.
	if !r.srcExhaust {
		buf := make([]byte, DefaultReadChunk)
		n, err := io.ReadFull(r.src, buf)
		r.inbuf = append(r.inbuf, buf[:n]...)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			r.srcExhaust = true
		default:
			return err
		}
	}
	if !r.headerDone {
		hlen, err := deflate.ParseGzipHeader(r.inbuf)
		if err != nil {
			if !r.srcExhaust {
				return nil // need more input for the header
			}
			return err
		}
		r.inbuf = r.inbuf[hlen:]
		r.headerDone = true
	}
	if r.state.Done() {
		return r.finishTrailer()
	}

	// Submit what we have; keep the last 8 bytes back until EOF so the
	// trailer is never fed to the inflater as payload... the session
	// tolerates trailing bytes (it stops at the final block), so feed it
	// all and recover the trailer from state.Tail().
	chunk := r.inbuf
	r.inbuf = nil
	out, err := r.submitResume(chunk)
	if err != nil {
		return err
	}
	r.outbuf = out
	r.outPos = 0
	r.crc.Update(out)
	r.isize += uint32(len(out))

	if r.state.Done() {
		if err := r.finishTrailer(); err != nil {
			return err
		}
	} else if r.srcExhaust && len(out) == 0 {
		return errors.New("nxzip: truncated gzip stream")
	}
	return nil
}

// submitResume runs one resume request — admitted, digested and counted
// in the view's tenant series like any one-shot — on the pinned device.
// Only pre-engine failures (nx.Retryable) may migrate the pin to another
// device: once the engine has fed the session, the resume state has
// advanced and a replay would double-feed the chunk, so data-plane
// errors surface directly. When no healthy device remains, the session's
// own software inflater finishes the chunk — the resume state is the
// same object either way.
func (r *StreamReader) submitResume(chunk []byte) ([]byte, error) {
	var (
		out []byte
		m   Metrics
	)
	c := call{a: r.acc, nctx: r.acc.nctx, op: "stream-decompress", need: deflateNeed,
		sticky: true, resumable: true, dev: r.dev}
	err := c.run(&m,
		func(ctx *nx.Context, req uint64, hop int) (err error) {
			crb := &nx.CRB{
				Func: nx.FCDecompress, Wrap: nx.WrapRaw, Input: chunk,
				DecompState: r.state, NotFinal: !r.srcExhaust, ReqID: req, Hop: hop,
			}
			out, err = submitCRB(ctx, crb, "stream decompress", &m)
			return err
		},
		func() (err error) {
			start := time.Now()
			out, err = r.state.SoftFeed(chunk, r.srcExhaust)
			softMetrics(&m, out, len(chunk), len(out), start)
			return err
		})
	r.dev = c.dev
	if err != nil {
		return nil, err
	}
	m.OutBytes = len(out)
	r.Stats.add(&m)
	return out, nil
}

// finishTrailer validates CRC32/ISIZE once the final block has decoded.
func (r *StreamReader) finishTrailer() error {
	if r.trailerDone {
		return nil
	}
	tail := r.state.Tail()
	// Any input we never submitted is also part of the tail.
	tail = append(append([]byte{}, tail...), r.inbuf...)
	if len(tail) < 8 {
		if !r.srcExhaust {
			// Pull the remainder of the trailer from the source.
			rest, err := io.ReadAll(io.LimitReader(r.src, 16))
			if err != nil {
				return err
			}
			tail = append(tail, rest...)
			r.srcExhaust = true
		}
		if len(tail) < 8 {
			return errors.New("nxzip: missing gzip trailer")
		}
	}
	wantCRC := binary.LittleEndian.Uint32(tail[0:4])
	wantISize := binary.LittleEndian.Uint32(tail[4:8])
	if got := r.crc.Sum(); got != wantCRC {
		return fmt.Errorf("nxzip: stream CRC32 %08x, want %08x", got, wantCRC)
	}
	if r.isize != wantISize {
		return fmt.Errorf("nxzip: stream ISIZE %d, want %d", r.isize, wantISize)
	}
	r.trailerDone = true
	return nil
}
