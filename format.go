package nxzip

// format.go is the format-routed face of the codec-plural API: one
// Format enum covering every wire format the stack produces (the three
// DEFLATE wraps plus the 842 and LZ4 block formats), a parse helper for
// CLIs, and the CompressFormat / DecompressFormat / Transcode entry
// points that route each request to the right codec path — including
// the one-round-trip transcode (decompress one format, recompress
// another) that the FCTranscode function code serves on capable
// devices.

import (
	"fmt"
	"strings"

	"nxzip/internal/nx"
)

// Format names a complete wire format: codec family plus framing.
type Format int

const (
	// FormatGzip is DEFLATE in RFC 1952 gzip framing (the default).
	FormatGzip Format = iota
	// FormatZlib is DEFLATE in RFC 1950 zlib framing.
	FormatZlib
	// FormatRaw is a bare RFC 1951 DEFLATE stream.
	FormatRaw
	// Format842 is the 842 block format (unframed).
	Format842
	// FormatLZ4 is the LZ4 block format (unframed).
	FormatLZ4
)

func (f Format) String() string {
	switch f {
	case FormatGzip:
		return "gzip"
	case FormatZlib:
		return "zlib"
	case FormatRaw:
		return "raw"
	case Format842:
		return "842"
	case FormatLZ4:
		return "lz4"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat maps a format name ("gzip", "zlib", "raw", "842", "lz4")
// to its Format — the -format flag parser of the CLIs.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gzip", "gz":
		return FormatGzip, nil
	case "zlib":
		return FormatZlib, nil
	case "raw", "deflate":
		return FormatRaw, nil
	case "842":
		return Format842, nil
	case "lz4":
		return FormatLZ4, nil
	}
	return 0, fmt.Errorf("nxzip: unknown format %q (want gzip, zlib, raw, 842 or lz4)", s)
}

// Codec returns the codec family behind the format.
func (f Format) Codec() nx.Codec {
	switch f {
	case Format842:
		return nx.Codec842
	case FormatLZ4:
		return nx.CodecLZ4
	}
	return nx.CodecDeflate
}

// wrap returns the DEFLATE framing of the format; block formats report
// WrapRaw (unused on their paths).
func (f Format) wrap() nx.Wrap {
	switch f {
	case FormatGzip:
		return nx.WrapGzip
	case FormatZlib:
		return nx.WrapZlib
	}
	return nx.WrapRaw
}

// CompressFormat compresses src into the named format through whichever
// devices advertise its codec, with per-codec software fallback.
func (a *Accelerator) CompressFormat(f Format, src []byte) ([]byte, *Metrics, error) {
	switch f {
	case FormatGzip, FormatZlib, FormatRaw:
		return a.compress(a.nctx, "compress", src, f.wrap())
	case Format842, FormatLZ4:
		return a.blockCompressOp(f.Codec(), src)
	}
	return nil, nil, fmt.Errorf("nxzip: unknown format %v", f)
}

// DecompressFormat decompresses a stream of the named format. maxOutput
// of 0 applies a size heuristic; pass an explicit bound for untrusted
// input.
func (a *Accelerator) DecompressFormat(f Format, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	switch f {
	case FormatGzip, FormatZlib, FormatRaw:
		return a.decompress(src, f.wrap(), maxOutput)
	case Format842, FormatLZ4:
		return a.blockDecompressOp(f.Codec(), src, maxOutput)
	}
	return nil, nil, fmt.Errorf("nxzip: unknown format %v", f)
}

// Transcode converts src from one format to another in a single node
// round trip: the request dispatches to a device advertising both
// codecs, which decodes and re-encodes without the plaintext crossing
// back over the bus between passes (the FCTranscode function code).
// When no such device is healthy — or the node's hardware serves only
// one of the codecs — the software paths produce the result with
// Metrics.Degraded set. Transcoding between two framings of the same
// codec (gzip → zlib) is rejected: reframe instead.
func (a *Accelerator) Transcode(from, to Format, src []byte) ([]byte, *Metrics, error) {
	cf, ct := from.Codec(), to.Codec()
	if cf == ct {
		return nil, nil, fmt.Errorf("nxzip: transcode %s → %s: same codec on both sides", from, to)
	}
	// FCTranscode carries one Wrap field for whichever side is DEFLATE;
	// between two block codecs the framing is moot.
	wrap := nx.WrapRaw
	switch {
	case cf == nx.CodecDeflate:
		wrap = from.wrap()
	case ct == nx.CodecDeflate:
		wrap = to.wrap()
	}
	c := call{a: a, nctx: a.nctx, op: "transcode", need: nx.Codecs(cf, ct)}
	return c.runCopy(
		func(ctx *nx.Context, m *Metrics, req uint64, hop int) ([]byte, error) {
			crb := &nx.CRB{
				Func: nx.FCTranscode, Wrap: wrap,
				SourceCodec: cf, TargetCodec: ct,
				Input: src, ReqID: req, Hop: hop,
			}
			return submitCRB(ctx, crb, "transcode", m)
		},
		func(m *Metrics) ([]byte, error) { return a.softTranscode(from, to, src, m) })
}

// softTranscode is Transcode's software fallback: decode with the
// source codec's software path, re-encode with the target's, and merge
// the two passes' accounting.
func (a *Accelerator) softTranscode(from, to Format, src []byte, m *Metrics) ([]byte, error) {
	var (
		plain []byte
		dm    Metrics
		err   error
	)
	if from.Codec() == nx.CodecDeflate {
		plain, err = a.softDecompress(src, from.wrap(), 0, &dm)
	} else {
		plain, err = softBlockDecompress(from.Codec(), src, 0, &dm)
	}
	if err != nil {
		return nil, err
	}
	var out []byte
	if to.Codec() == nx.CodecDeflate {
		out, err = a.softCompress(plain, to.wrap(), m)
	} else {
		out, err = softBlockCompress(to.Codec(), plain, m)
	}
	if err != nil {
		return nil, err
	}
	m.add(&dm)
	m.InBytes = len(src)
	m.OutBytes = len(out)
	m.Ratio = 0
	if len(out) > 0 {
		m.Ratio = float64(len(src)) / float64(len(out))
	}
	return out, nil
}

// nodeFormatOp runs one format-routed call on the node's shared default
// view.
func (n *Node) nodeFormatOp(op func(a *Accelerator) ([]byte, *Metrics, error)) ([]byte, *Metrics, error) {
	return op(n.defaultView())
}

// CompressFormat compresses through the node's shared default view —
// the node-level face of the format-routed API, so callers that never
// open an explicit View still get capability-filtered dispatch across
// every device.
func (n *Node) CompressFormat(f Format, src []byte) ([]byte, *Metrics, error) {
	return n.nodeFormatOp(func(a *Accelerator) ([]byte, *Metrics, error) {
		return a.CompressFormat(f, src)
	})
}

// DecompressFormat decompresses through the node's shared default view.
func (n *Node) DecompressFormat(f Format, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return n.nodeFormatOp(func(a *Accelerator) ([]byte, *Metrics, error) {
		return a.DecompressFormat(f, src, maxOutput)
	})
}

// Transcode converts formats through the node's shared default view.
func (n *Node) Transcode(from, to Format, src []byte) ([]byte, *Metrics, error) {
	return n.nodeFormatOp(func(a *Accelerator) ([]byte, *Metrics, error) {
		return a.Transcode(from, to, src)
	})
}

// DeviceCodecs reports the codec capability set device i advertises
// (zero-value set = every codec).
func (n *Node) DeviceCodecs(i int) nx.CodecSet { return n.Device(i).Codecs() }

// CapableDevices returns the number of devices advertising every codec
// in need, regardless of health.
func (n *Node) CapableDevices(need nx.CodecSet) int { return n.topo.CapableCount(need) }
