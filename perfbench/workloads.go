package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/flightrec"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
)

var workloads = map[string]func(seed int64, nproc int) (workload, error){
	"bulk":     newBulk,
	"smallreq": newSmallReq,
	"stream":   newStream,
}

func workloadNames() string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return strings.Join(n, ", ")
}

// layerInfo tells the traced run what the real path of a workload is made
// of, and where its live counters are.
type layerInfo struct {
	device    nx.DeviceConfig // model of every device in the node
	shape     topology.Shape  // node shape, for the pick replay
	admission bool            // the admission gate is on the real path
	recorder  bool            // the flight recorder is on the real path
	devices   []*nx.Device    // the real devices (MMU and VAS counters)
	// dispatched returns per-device dispatch counts (nil: one device).
	dispatched func() []int64
	snapshot   func() *telemetry.Snapshot
	adm        *admission.Controller // nil when off the path
	rec        *flightrec.Recorder   // nil when off the path
	// acc is a view the off-path stream calibration may use.
	acc     *nxzip.Accelerator
	workers int
}

// seedFor derives one generator seed per input so inputs differ from
// each other and from seed to seed.
func seedFor(seed int64, parts ...int) int64 {
	s := seed
	for _, p := range parts {
		s = s*1000003 + int64(p) + 1
	}
	return s
}

func stdGzip(b []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.DefaultCompression) // level 6 is always valid
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// stdGunzipEqual decodes a (possibly multi-member) gzip stream with the
// standard library and reports whether it decodes to want.
func stdGunzipEqual(gz, want []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("stdlib gzip: %w", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("stdlib gzip: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("stdlib gzip decodes to %d bytes that differ from the %d-byte source", len(got), len(want))
	}
	return nil
}

// ---------------------------------------------------------------- bulk

// bulk is one client compressing and then decompressing 1 MiB inputs on
// a single P9 accelerator in the default dynamic-table mode.
type bulk struct {
	acc *nxzip.Accelerator
	cl  []*client
	src [][]byte
	gz  [][]byte // reference device output per input
}

var bulkKinds = []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.HTML, corpus.Binary}

func newBulk(seed int64, _ int) (workload, error) {
	b := &bulk{acc: nxzip.Open(nxzip.P9()), cl: []*client{{id: 0}}}
	for i, k := range bulkKinds {
		b.src = append(b.src, corpus.Generate(k, 1<<20, seedFor(seed, i)))
	}
	b.gz = make([][]byte, len(b.src))
	return b, nil
}

func (b *bulk) clients() []*client { return b.cl }
func (b *bulk) close()             { b.acc.Close() }

func (b *bulk) layers() *layerInfo {
	return &layerInfo{
		device:   nx.P9Device(),
		shape:    topology.Single(nx.P9Device()),
		devices:  []*nx.Device{b.acc.Device()},
		snapshot: b.acc.Metrics,
		acc:      b.acc,
		workers:  1,
	}
}

func (b *bulk) pass(c *client) {
	for i, src := range b.src {
		t0 := time.Now()
		gz, m, err := b.acc.CompressGzip(src)
		t1 := time.Now()
		c.compressed(len(src), t1.Sub(t0), true)
		if err != nil {
			c.fail("CompressGzip %s: %v", bulkKinds[i], err)
			continue
		}
		c.device("CompressGzip", m, len(src))
		c.ratio(len(src), len(gz))
		switch {
		case c.ref:
			if err := stdGunzipEqual(gz, src); err != nil {
				c.fail("CompressGzip %s: %v", bulkKinds[i], err)
			}
			b.gz[i] = gz
		case !c.same(gz, b.gz[i]):
			c.fail("CompressGzip %s: output differs from the reference", bulkKinds[i])
		}
		c.led.compress(t0, t1, src, gz, opCompress)

		t0 = time.Now()
		out, m, err := b.acc.DecompressGzip(gz)
		t1 = time.Now()
		c.decompressed(len(out), t1.Sub(t0), true)
		if err != nil {
			c.fail("DecompressGzip %s: %v", bulkKinds[i], err)
			continue
		}
		c.device("DecompressGzip", m, len(out))
		if !c.same(out, src) {
			c.fail("DecompressGzip %s: round trip differs from the source", bulkKinds[i])
		}
		c.led.decompress(t0, t1, gz, out, opDecompress)

		if c.ref {
			// Standard-library gzip must decode through the device too.
			if out, _, err := b.acc.DecompressGzip(stdGzip(src)); err != nil || !bytes.Equal(out, src) {
				c.fail("DecompressGzip of stdlib gzip %s: %v", bulkKinds[i], err)
			}
		}
	}
}

// ------------------------------------------------------------ smallreq

// smallreq is nproc clients, each its own tenant view, on a two-chip P9
// node with admission, the flight recorder and tenant accounting on.
type smallreq struct {
	node *nxzip.Node
	cl   []*client
	per  []*srClient
}

// srClient is one smallreq client's view and inputs.
type srClient struct {
	acc      *nxzip.Accelerator
	pay      [][]byte // 256 B, 1 KiB and 4 KiB of jsonlogs and text
	std      [][]byte // stdlib gzip of each payload
	ref      [][]byte // reference device gzip of each payload
	batch    []*nxzip.BatchRequest
	batchRef [][]byte
	cdst     []byte
	ddst     []byte
}

const (
	srPairs     = 8 // Into compress+decompress pairs per round (16 Into calls)
	srRounds    = 3 // rounds per pass: every payload is used 4 times
	srBatch     = 16
	srBatchSize = 256
)

func newSmallReq(seed int64, nproc int) (workload, error) {
	node, err := nxzip.OpenNode(nxzip.P9Node(2))
	if err != nil {
		return nil, err
	}
	node.EnableAdmission(admission.DefaultConfig())
	node.EnableFlightRecorder("")
	s := &smallreq{node: node}
	kinds := []corpus.Kind{corpus.JSONLogs, corpus.Text}
	for id := 0; id < nproc; id++ {
		p := &srClient{acc: node.View(), cdst: make([]byte, 0, 16<<10), ddst: make([]byte, 0, 16<<10)}
		for si, size := range []int{256, 1 << 10, 4 << 10} {
			for ki, k := range kinds {
				b := corpus.Generate(k, size, seedFor(seed, id, si, ki))
				p.pay = append(p.pay, b)
				p.std = append(p.std, stdGzip(b))
			}
		}
		p.ref = make([][]byte, len(p.pay))
		for j := 0; j < srBatch; j++ {
			src := corpus.Generate(kinds[j%2], srBatchSize, seedFor(seed, id, 100+j))
			p.batch = append(p.batch, &nxzip.BatchRequest{Src: src, Dst: make([]byte, 0, 2<<10)})
		}
		p.batchRef = make([][]byte, srBatch)
		s.per = append(s.per, p)
		s.cl = append(s.cl, &client{id: id})
	}
	return s, nil
}

func (s *smallreq) clients() []*client { return s.cl }

func (s *smallreq) close() {
	for _, p := range s.per {
		p.acc.Close()
	}
}

func (s *smallreq) layers() *layerInfo {
	devs := make([]*nx.Device, s.node.Devices())
	for i := range devs {
		devs[i] = s.node.Device(i)
	}
	return &layerInfo{
		device:    nx.P9Device(),
		shape:     topology.P9Node(2),
		admission: true,
		recorder:  true,
		devices:   devs,
		dispatched: func() []int64 {
			d := make([]int64, s.node.Devices())
			for i := range d {
				d[i] = s.node.Dispatched(i)
			}
			return d
		},
		snapshot: s.node.Metrics,
		adm:      s.node.Admission(),
		rec:      s.node.FlightRecorder(),
		acc:      s.per[0].acc,
		workers:  len(s.per),
	}
}

func (s *smallreq) pass(c *client) {
	p := s.per[c.id]
	var m nxzip.Metrics
	for r := 0; r < srRounds; r++ {
		for j := 0; j < srPairs; j++ {
			i := (r*srPairs + j) % len(p.pay)
			src := p.pay[i]
			t0 := time.Now()
			gz, err := p.acc.CompressGzipInto(p.cdst, src, &m)
			t1 := time.Now()
			c.compressed(len(src), t1.Sub(t0), true)
			if err != nil {
				c.fail("CompressGzipInto payload %d: %v", i, err)
			} else {
				c.device("CompressGzipInto", &m, len(src))
				c.ratio(len(src), len(gz))
				switch {
				case c.ref:
					if err := stdGunzipEqual(gz, src); err != nil {
						c.fail("CompressGzipInto payload %d: %v", i, err)
					}
					p.ref[i] = append([]byte(nil), gz...)
				case !c.same(gz, p.ref[i]):
					c.fail("CompressGzipInto payload %d: output differs from the reference", i)
				}
				c.led.compress(t0, t1, src, gz, opCompress)
			}

			t0 = time.Now()
			out, err := p.acc.DecompressGzipInto(p.ddst, p.std[i], &m)
			t1 = time.Now()
			c.decompressed(len(out), t1.Sub(t0), true)
			if err != nil {
				c.fail("DecompressGzipInto payload %d: %v", i, err)
				continue
			}
			c.device("DecompressGzipInto", &m, len(out))
			if !c.same(out, src) {
				c.fail("DecompressGzipInto payload %d: stdlib gzip decodes to different bytes", i)
			}
			c.led.decompress(t0, t1, p.std[i], out, opDecompress)
		}
		s.batch(c, p)
	}
}

func (s *smallreq) batch(c *client, p *srClient) {
	n := 0
	for _, q := range p.batch {
		q.Out, q.Err, q.Metrics = nil, nil, nxzip.Metrics{}
		n += len(q.Src)
	}
	t0 := time.Now()
	p.acc.CompressBatch(p.batch)
	t1 := time.Now()
	c.batched(n, len(p.batch), t1.Sub(t0))
	for j, q := range p.batch {
		if q.Err != nil {
			c.fail("CompressBatch entry %d: %v", j, q.Err)
			continue
		}
		c.device("CompressBatch", &q.Metrics, len(q.Src))
		c.ratio(len(q.Src), len(q.Out))
		switch {
		case c.ref:
			if err := stdGunzipEqual(q.Out, q.Src); err != nil {
				c.fail("CompressBatch entry %d: %v", j, err)
			}
			p.batchRef[j] = append([]byte(nil), q.Out...)
		case !c.same(q.Out, p.batchRef[j]):
			c.fail("CompressBatch entry %d: output differs from the reference", j)
		}
	}
	c.led.batch(t0, t1, p.batch)
}

// -------------------------------------------------------------- stream

// stream is one producer on a one-drawer z15 node pushing an 8 MiB
// jsonlogs stream through every stream type, in 64 KiB Writes and Reads.
type stream struct {
	node    *nxzip.Node
	acc     *nxzip.Accelerator
	cl      []*client
	src     []byte
	std     []byte // stdlib gzip -6 of src
	refSW   []byte // reference StreamWriter output
	refW    []byte // reference Writer output (ParallelWriter must match it)
	workers int
	out     bytes.Buffer
	rbuf    []byte
}

const (
	streamSize = 8 << 20
	streamIO   = 64 << 10
)

func newStream(seed int64, nproc int) (workload, error) {
	node, err := nxzip.OpenNode(nxzip.Z15Node(1))
	if err != nil {
		return nil, err
	}
	s := &stream{node: node, acc: node.View(), cl: []*client{{id: 0}}, workers: nproc, rbuf: make([]byte, streamIO)}
	s.src = corpus.Generate(corpus.JSONLogs, streamSize, seedFor(seed, 0))
	s.std = stdGzip(s.src)
	return s, nil
}

func (s *stream) clients() []*client { return s.cl }
func (s *stream) close()             { s.acc.Close() }

func (s *stream) layers() *layerInfo {
	devs := make([]*nx.Device, s.node.Devices())
	for i := range devs {
		devs[i] = s.node.Device(i)
	}
	return &layerInfo{
		device:  nx.Z15Device(),
		shape:   topology.Z15Node(1),
		devices: devs,
		dispatched: func() []int64 {
			d := make([]int64, s.node.Devices())
			for i := range d {
				d[i] = s.node.Dispatched(i)
			}
			return d
		},
		snapshot: s.node.Metrics,
		acc:      s.acc,
		workers:  s.workers,
	}
}

// writeAll pushes src through w in streamIO Writes and closes it, timing
// every call as a compress call (Close without a latency sample).
func (s *stream) writeAll(c *client, w io.WriteCloser, op opKind) bool {
	for off := 0; off < len(s.src); off += streamIO {
		chunk := s.src[off : off+streamIO]
		t0 := time.Now()
		_, err := w.Write(chunk)
		t1 := time.Now()
		c.compressed(len(chunk), t1.Sub(t0), true)
		if err != nil {
			c.fail("%s Write at %d: %v", op, off, err)
			return false
		}
		c.led.streamWrite(t0, t1, op, len(chunk), s.out.Bytes())
	}
	t0 := time.Now()
	err := w.Close()
	t1 := time.Now()
	c.compressed(0, t1.Sub(t0), false)
	if err != nil {
		c.fail("%s Close: %v", op, err)
		return false
	}
	c.led.streamClose(t0, t1, op, s.out.Bytes())
	return true
}

// readAll drains r in streamIO Reads, checking every byte against src.
func (s *stream) readAll(c *client, r io.Reader, op opKind) {
	pos := 0
	for {
		t0 := time.Now()
		n, err := r.Read(s.rbuf)
		t1 := time.Now()
		c.decompressed(n, t1.Sub(t0), n > 0)
		if n > 0 {
			if pos+n > len(s.src) || !c.same(s.rbuf[:n], s.src[pos:pos+n]) {
				c.fail("%s Read at %d: bytes differ from the source", op, pos)
				return
			}
			c.led.streamRead(t0, t1, op, n)
			pos += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			c.fail("%s Read at %d: %v", op, pos, err)
			return
		}
	}
	if pos != len(s.src) {
		c.fail("%s: read %d of %d bytes", op, pos, len(s.src))
	}
}

func (s *stream) pass(c *client) {
	// StreamWriter: one gzip member of history-carrying segments.
	s.out.Reset()
	sw := s.acc.NewStreamWriter(&s.out)
	c.led.streamBegin(opStreamWrite, s.src)
	if s.writeAll(c, sw, opStreamWrite) {
		s.checkWriter(c, "StreamWriter", &s.refSW, sw.Stats)
	}

	// Writer: one gzip member per chunk, serially.
	s.out.Reset()
	w := s.acc.NewWriter(&s.out)
	c.led.streamBegin(opWriterWrite, s.src)
	if s.writeAll(c, w, opWriterWrite) {
		s.checkWriter(c, "Writer", &s.refW, w.Stats)
	}

	// ParallelWriter with nproc workers: byte-identical to Writer.
	s.out.Reset()
	pw := s.acc.NewParallelWriterChunk(&s.out, nxzip.DefaultChunkSize, s.workers)
	c.led.streamBegin(opParallelWrite, s.src)
	if s.writeAll(c, pw, opParallelWrite) {
		c.ratio(len(s.src), s.out.Len())
		if !c.same(s.out.Bytes(), s.refW) {
			c.fail("ParallelWriter: output differs from the Writer's")
		}
		if pw.Stats.Degraded {
			c.fail("ParallelWriter: degraded to the software path")
		}
	}
	pout := append([]byte(nil), s.out.Bytes()...)

	// StreamReader over stdlib gzip -6: DecompState resume per input chunk.
	sr := s.acc.NewStreamReader(bytes.NewReader(s.std), 2*streamSize)
	c.led.streamBegin(opStreamRead, s.std)
	s.readAll(c, sr, opStreamRead)
	c.device("StreamReader", &sr.Stats, streamSize)

	// ParallelReader over the ParallelWriter output, nproc workers.
	pr := s.acc.NewParallelReader(bytes.NewReader(pout), s.workers)
	c.led.streamBegin(opParallelRead, pout)
	s.readAll(c, pr, opParallelRead)
	if pr.Stats.Degraded {
		c.fail("ParallelReader: degraded to the software path")
	}
}

// checkWriter validates a serial writer's output: against the standard
// library and stored on the reference pass, against the reference after.
func (s *stream) checkWriter(c *client, what string, ref *[]byte, m nxzip.Metrics) {
	out := s.out.Bytes()
	c.device(what, &m, streamSize)
	c.ratio(len(s.src), len(out))
	switch {
	case c.ref:
		if err := stdGunzipEqual(out, s.src); err != nil {
			c.fail("%s: %v", what, err)
		}
		*ref = append([]byte(nil), out...)
	case !c.same(out, *ref):
		c.fail("%s: output differs from the reference", what)
	}
}
