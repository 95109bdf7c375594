package nxzip

// fallback.go is the software half of graceful degradation: when the
// request lifecycle (lifecycle.go) finds no healthy device — or the
// retry budget is spent, or admission browns the request out — these
// paths produce the result instead, on the same internal/lz77 +
// internal/deflate code the paper's software baseline uses, so callers
// still get correct bytes. Each fills the request's Metrics with
// Degraded set.

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/lz4"
	"nxzip/internal/lz77"
	"nxzip/internal/nx"
	"nxzip/internal/x842"
)

// softLevel is the zlib-equivalent compression level of the software
// fallback path.
const softLevel = 6

// softMetrics fills the Metrics of a software-path result: host
// wall-clock stands in for device time (so Throughput stays meaningful),
// no device cycles are charged, checksums cover the plaintext, and the
// ratio is plaintext over encoded bytes in either direction.
func softMetrics(m *Metrics, plain []byte, in, out int, start time.Time) {
	*m = Metrics{
		InBytes:    in,
		OutBytes:   out,
		DeviceTime: time.Since(start),
		CRC32:      checksum.Sum32(plain),
		Adler32:    checksum.SumAdler32(plain),
		Degraded:   true,
	}
	if enc := in + out - len(plain); enc > 0 {
		m.Ratio = float64(len(plain)) / float64(enc)
	}
}

// softInflateErr renders an over-budget software decode like the
// device path's target-space failure.
func softInflateErr(err error, maxOutput int) error {
	if errors.Is(err, deflate.ErrTooLarge) {
		return fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", maxOutput)
	}
	return err
}

// softCompress is the software fallback of the one-shot compression
// paths.
func (a *Accelerator) softCompress(src []byte, wrap nx.Wrap, m *Metrics) ([]byte, error) {
	start := time.Now()
	opts := deflate.Options{Level: softLevel}
	var (
		out []byte
		err error
	)
	switch wrap {
	case nx.WrapGzip:
		out, err = deflate.CompressGzip(src, opts)
	case nx.WrapZlib:
		out, err = deflate.CompressZlib(src, opts)
	default:
		out, err = deflate.Compress(src, opts)
	}
	if err != nil {
		return nil, err
	}
	softMetrics(m, src, len(src), len(out), start)
	return out, nil
}

// softDecompress is the software fallback of the one-shot decompression
// paths. Its verdict on the input is authoritative: an error here means
// the stream really is corrupt (or over budget), not that a device
// flaked.
func (a *Accelerator) softDecompress(src []byte, wrap nx.Wrap, maxOutput int, m *Metrics) ([]byte, error) {
	start := time.Now()
	opts := deflate.InflateOptions{MaxOutput: maxOutput}
	var (
		out []byte
		err error
	)
	switch wrap {
	case nx.WrapGzip:
		out, err = deflate.DecompressGzip(src, opts)
	case nx.WrapZlib:
		out, err = deflate.DecompressZlib(src, opts)
	default:
		out, err = deflate.Decompress(src, opts)
	}
	if err != nil {
		return nil, softInflateErr(err, maxOutput)
	}
	softMetrics(m, out, len(src), len(out), start)
	return out, nil
}

// softSegment compresses one raw stream segment in software, carrying
// the history window exactly as the engine does: matches may reach into
// the previous 32 KiB, non-final segments end in a sync flush so the
// outputs concatenate into one valid DEFLATE stream.
func (a *Accelerator) softSegment(history, chunk []byte, final bool, m *Metrics) ([]byte, error) {
	start := time.Now()
	matcher := lz77.NewSoftMatcher(lz77.LevelParams(softLevel))
	var toks []lz77.Token
	if len(history) > 0 {
		toks = matcher.TokenizeWithHistory(nil, history, chunk)
	} else {
		toks = matcher.Tokenize(nil, chunk)
	}
	body, err := deflate.EncodeTokensStream(toks, chunk, deflate.ModeFixed, nil, final)
	if err != nil {
		return nil, err
	}
	softMetrics(m, chunk, len(chunk), len(body), start)
	return body, nil
}

// softBlockCompress / softBlockDecompress are the per-codec software
// fallbacks of the block-codec entry points: the same pure-Go codecs
// the engine model runs, minus the device.
func softBlockCompress(codec nx.Codec, src []byte, m *Metrics) ([]byte, error) {
	start := time.Now()
	var out []byte
	switch codec {
	case nx.Codec842:
		out = x842.Compress(src)
	case nx.CodecLZ4:
		out = lz4.Compress(src)
	default:
		return nil, fmt.Errorf("nxzip: no software block compressor for codec %s", codec)
	}
	softMetrics(m, src, len(src), len(out), start)
	return out, nil
}

func softBlockDecompress(codec nx.Codec, src []byte, maxOutput int, m *Metrics) ([]byte, error) {
	start := time.Now()
	var (
		out []byte
		err error
	)
	switch codec {
	case nx.Codec842:
		out, err = x842.Decompress(src, maxOutput)
	case nx.CodecLZ4:
		out, err = lz4.Decompress(src, maxOutput)
	default:
		return nil, fmt.Errorf("nxzip: no software block decompressor for codec %s", codec)
	}
	if err != nil {
		return nil, err
	}
	softMetrics(m, out, len(src), len(out), start)
	return out, nil
}
