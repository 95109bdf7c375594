package nx

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"sync"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
)

func newP9Context(tb testing.TB) *Context {
	tb.Helper()
	dev := NewDevice(P9Device())
	return dev.OpenContext(100)
}

func TestCompressDecompressAllFuncs(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Text, 200<<10, 1)
	for _, fc := range []FuncCode{FCCompressFHT, FCCompressDHT} {
		for _, wrap := range []Wrap{WrapRaw, WrapGzip, WrapZlib} {
			out, rep, err := ctx.Compress(src, fc, wrap, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", fc, wrap, err)
			}
			if rep.Ratio < 1.5 {
				t.Fatalf("%s/%s: ratio %.2f too low for text", fc, wrap, rep.Ratio)
			}
			back, rep2, err := ctx.Decompress(out, wrap, len(src)+1024, true)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", fc, wrap, err)
			}
			if !bytes.Equal(back, src) {
				t.Fatalf("%s/%s: round-trip mismatch", fc, wrap)
			}
			if rep2.OutBytes != len(src) {
				t.Fatalf("TPBC = %d", rep2.OutBytes)
			}
		}
	}
}

func TestAcceleratorOutputReadableByStdlib(t *testing.T) {
	// The headline interop property: gzip output of the device model is a
	// valid gzip file.
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.JSONLogs, 300<<10, 2)
	out, _, err := ctx.Compress(src, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("stdlib gunzip mismatch")
	}
}

func TestAcceleratorReadsStdlibStreams(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Source, 150<<10, 3)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(src)
	zw.Close()
	got, _, err := ctx.Decompress(buf.Bytes(), WrapGzip, len(src)+1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
}

func TestCannedDHTFuncCode(t *testing.T) {
	ctx := newP9Context(t)
	src := []byte(strings.Repeat("canned table payload; ", 2000))
	// Build a complete canned table (floor of 1 on every symbol).
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	toks, _ := m.Tokenize(nil, src)
	lf, df := deflate.CountFrequencies(toks)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		t.Fatal(err)
	}
	srcVA, _ := ctx.MapBuffer(len(src), true)
	dstVA, _ := ctx.MapBuffer(2*len(src)+1024, true)
	csb, _, err := ctx.Submit(&CRB{
		Func: FCCompressCannedDHT, Wrap: WrapGzip, Input: src,
		SourceVA: srcVA, TargetVA: dstVA, DHT: dht,
	})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("CC = %s (%s)", csb.CC, csb.Detail)
	}
	zr, err := gzip.NewReader(bytes.NewReader(csb.Output))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(zr)
	if !bytes.Equal(got, src) {
		t.Fatal("canned round-trip mismatch")
	}
	// Missing table -> CCInvalidCRB.
	csb2, _, err := ctx.Submit(&CRB{Func: FCCompressCannedDHT, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csb2.CC != CCInvalidCRB {
		t.Fatalf("CC = %s", csb2.CC)
	}
}

func Test842FuncCodes(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Columnar, 100<<10, 4)
	csb, rep, err := ctx.Submit(&CRB{Func: FC842Compress, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("CC = %s", csb.CC)
	}
	if rep.Ratio <= 1.0 {
		t.Fatalf("842 ratio %.2f on columnar", rep.Ratio)
	}
	back, _, err := ctx.Submit(&CRB{Func: FC842Decompress, Input: csb.Output, TargetCap: len(src) + 64, MaxOutput: len(src) + 64})
	if err != nil {
		t.Fatal(err)
	}
	if back.CC != CCSuccess {
		t.Fatalf("CC = %s (%s)", back.CC, back.Detail)
	}
	if !bytes.Equal(back.Output, src) {
		t.Fatal("842 round-trip mismatch")
	}
}

func TestCorruptInputGivesCCDataCorrupt(t *testing.T) {
	ctx := newP9Context(t)
	csb, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapGzip, Input: []byte("definitely not gzip data")})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCDataCorrupt {
		t.Fatalf("CC = %s", csb.CC)
	}
	if csb.Detail == "" {
		t.Fatal("no detail for corrupt data")
	}
}

func TestTargetSpaceExhausted(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Random, 64<<10, 5)
	csb, _, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src, TargetCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCTargetSpace {
		t.Fatalf("CC = %s", csb.CC)
	}
}

func TestChecksumsInCSB(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Text, 50<<10, 6)
	csb, _, err := ctx.Submit(&CRB{Func: FCCompressDHT, Wrap: WrapRaw, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CRC32 == 0 || csb.Adler32 == 0 {
		t.Fatal("checksums not computed")
	}
	// Decompression of the raw stream reports the same checksums.
	back, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapRaw, Input: csb.Output, TargetCap: len(src) + 64, MaxOutput: len(src) + 64})
	if err != nil {
		t.Fatal(err)
	}
	if back.CRC32 != csb.CRC32 || back.Adler32 != csb.Adler32 {
		t.Fatal("checksum mismatch across round-trip")
	}
}

func TestPageFaultTouchResubmit(t *testing.T) {
	dev := NewDevice(P9Device())
	ctx := dev.OpenContext(7)
	src := corpus.Generate(corpus.Text, 300<<10, 7)
	// Non-resident buffers: the engine faults, the context touches and
	// resubmits until it completes.
	out, rep, err := ctx.Compress(src, FCCompressDHT, WrapGzip, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("expected at least one translation fault retry")
	}
	if rep.WastedCycles <= 0 {
		t.Fatal("no wasted cycles accounted")
	}
	if rep.TotalCycles <= rep.Breakdown.Total {
		t.Fatal("total cycles must exceed the final attempt")
	}
	got, _, err := ctx.Decompress(out, WrapGzip, len(src)+1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("faulted round-trip mismatch")
	}
	if dev.MMU().Stats().Faults == 0 {
		t.Fatal("MMU recorded no faults")
	}
}

func TestCycleModelShape(t *testing.T) {
	ctx := newP9Context(t)
	small := corpus.Generate(corpus.Text, 4<<10, 8)
	large := corpus.Generate(corpus.Text, 4<<20, 8)
	_, repS, err := ctx.Compress(small, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	_, repL, err := ctx.Compress(large, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	rateS := float64(repS.InBytes) / repS.Time.Seconds()
	rateL := float64(repL.InBytes) / repL.Time.Seconds()
	if rateL < 4*rateS {
		t.Fatalf("large-buffer rate %.0f must dwarf small-buffer rate %.0f (latency-bound)", rateL, rateS)
	}
	peak := ctx.dev.PipelineConfig().PeakCompressRate()
	if rateL > peak {
		t.Fatalf("effective rate %.0f exceeds line rate %.0f", rateL, peak)
	}
	if rateL < 0.3*peak {
		t.Fatalf("large-buffer rate %.0f too far below line rate %.0f", rateL, peak)
	}
}

func TestZ15DoublesP9(t *testing.T) {
	src := corpus.Generate(corpus.Text, 4<<20, 9)
	p9 := NewDevice(P9Device()).OpenContext(1)
	z15 := NewDevice(Z15Device()).OpenContext(1)
	_, repP9, err := p9.Compress(src, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	_, repZ, err := z15.Compress(src, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := float64(repP9.InBytes) / repP9.Time.Seconds()
	rz := float64(repZ.InBytes) / repZ.Time.Seconds()
	if rz < 1.6*rp || rz > 2.6*rp {
		t.Fatalf("z15/p9 rate ratio %.2f outside [1.6, 2.6]", rz/rp)
	}
}

func TestEngineCounters(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Text, 32<<10, 10)
	ctx.Compress(src, FCCompressFHT, WrapRaw, true)
	ctx.Compress(src, FCCompressFHT, WrapRaw, true)
	cnt := ctx.dev.Engine(0).Counters()
	if cnt.Requests != 2 {
		t.Fatalf("requests = %d", cnt.Requests)
	}
	if cnt.InBytes != int64(2*len(src)) {
		t.Fatalf("inBytes = %d", cnt.InBytes)
	}
	if cnt.BusyCycles <= 0 {
		t.Fatal("no busy cycles")
	}
}

func TestEmptyInput(t *testing.T) {
	ctx := newP9Context(t)
	out, _, err := ctx.Compress(nil, FCCompressFHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ctx.Decompress(out, WrapGzip, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestDHTBeatsFHTOnSkewedData(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.DNA, 256<<10, 11)
	outF, _, err := ctx.Compress(src, FCCompressFHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}
	outD, _, err := ctx.Compress(src, FCCompressDHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(outD) >= len(outF) {
		t.Fatalf("DHT (%d) not smaller than FHT (%d) on 4-symbol data", len(outD), len(outF))
	}
}

func BenchmarkDeviceCompressP9(b *testing.B) {
	ctx := newP9Context(b)
	src := corpus.Generate(corpus.Text, 1<<20, 1)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, _, err := ctx.Compress(src, FCCompressDHT, WrapGzip, true); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMultiEngineDispatch(t *testing.T) {
	cfg := P9Device()
	cfg.Engines = 2
	dev := NewDevice(cfg)
	src := corpus.Generate(corpus.Text, 64<<10, 20)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := dev.OpenContext(nmmu.PID(g + 1))
			defer ctx.Close()
			for i := 0; i < 8; i++ {
				out, _, err := ctx.Compress(src, FCCompressFHT, WrapGzip, true)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				back, _, err := ctx.Decompress(out, WrapGzip, len(src)+1024, true)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(back, src) {
					t.Errorf("goroutine %d: mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c0 := dev.Engine(0).Counters().Requests
	c1 := dev.Engine(1).Counters().Requests
	if c0 == 0 || c1 == 0 {
		t.Fatalf("engine distribution %d/%d: one engine idle", c0, c1)
	}
}

func TestMoveFuncCode(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Binary, 256<<10, 30)
	csb, rep, err := ctx.Submit(&CRB{Func: FCMove, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("CC = %s", csb.CC)
	}
	if !bytes.Equal(csb.Output, src) {
		t.Fatal("move altered data")
	}
	if csb.CRC32 == 0 || csb.Adler32 == 0 {
		t.Fatal("no checksums")
	}
	// Move must be faster than compressing the same bytes (DMA-bound vs
	// LZ-bound).
	_, repC, err := ctx.Compress(src, FCCompressDHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles >= repC.TotalCycles {
		t.Fatalf("move %d cycles not below compress %d", rep.TotalCycles, repC.TotalCycles)
	}
	// And its CRC matches the checksum package.
	var want = csb.CRC32
	csb2, _, _ := ctx.Submit(&CRB{Func: FCMove, Input: src})
	if csb2.CRC32 != want {
		t.Fatal("nondeterministic CRC")
	}
}

func TestSyncCallZ15(t *testing.T) {
	dev := NewDevice(Z15Device())
	ctx := dev.OpenContext(1)
	src := corpus.Generate(corpus.Text, 8<<10, 40)
	csbA, repA, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	csbS, repS, err := ctx.SyncCall(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csbS.CC != CCSuccess || csbA.CC != CCSuccess {
		t.Fatalf("CCs %s / %s", csbS.CC, csbA.CC)
	}
	if !bytes.Equal(csbS.Output, csbA.Output) {
		t.Fatal("sync and async produced different bytes")
	}
	// Sync dispatch must be cheaper for a small request.
	if repS.TotalCycles >= repA.TotalCycles {
		t.Fatalf("sync %d cycles not below async %d", repS.TotalCycles, repA.TotalCycles)
	}
	want := repA.TotalCycles - (dev.PipelineConfig().SetupCycles - dev.PipelineConfig().SyncSetupCycles)
	if repS.TotalCycles != want {
		t.Fatalf("sync cycles %d, want %d", repS.TotalCycles, want)
	}
	// The engine's busy time is exactly the two requests' cycles: the
	// sync-setup saving is discounted once, not again from the counter.
	if busy := dev.Engine(0).Counters().BusyCycles; busy != repA.TotalCycles+repS.TotalCycles {
		t.Fatalf("engine busy cycles %d, want %d + %d", busy, repA.TotalCycles, repS.TotalCycles)
	}
}

func TestSyncCallUnsupportedOnP9(t *testing.T) {
	ctx := newP9Context(t)
	_, _, err := ctx.SyncCall(&CRB{Func: FCCompressFHT, Input: []byte("x")})
	if err == nil {
		t.Fatal("P9 accepted a synchronous call")
	}
}

func TestSyncCallFaultProtocol(t *testing.T) {
	dev := NewDevice(Z15Device())
	ctx := dev.OpenContext(1)
	src := corpus.Generate(corpus.Text, 128<<10, 41)
	srcVA, _ := ctx.MapBuffer(len(src), false) // demand-paged
	dstVA, _ := ctx.MapBuffer(2*len(src)+1024, true)
	csb, rep, err := ctx.SyncCall(&CRB{
		Func: FCCompressFHT, Wrap: WrapRaw, Input: src,
		SourceVA: srcVA, TargetVA: dstVA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("CC = %s", csb.CC)
	}
	if rep.Retries == 0 {
		t.Fatal("no fault retries on demand-paged sync call")
	}
}

func TestResumableDecompression(t *testing.T) {
	ctx := newP9Context(t)
	src := corpus.Generate(corpus.Text, 512<<10, 60)
	// One logical stream built from history-carried segments.
	var stream []byte
	var history []byte
	const chunk = 64 << 10
	for off := 0; off < len(src); off += chunk {
		end := off + chunk
		if end > len(src) {
			end = len(src)
		}
		csb, _, err := ctx.Submit(&CRB{
			Func: FCCompressDHT, Wrap: WrapRaw, Input: src[off:end],
			History: history, NotFinal: end != len(src),
		})
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("compress segment: %v %v", err, csb.CC)
		}
		stream = append(stream, csb.Output...)
		history = src[:end]
		if len(history) > 32<<10 {
			history = history[len(history)-(32<<10):]
		}
	}
	// Decompress it through resume-state requests of awkward sizes.
	st := NewDecompState(len(src) + 1024)
	var got []byte
	var totalCycles int64
	for off := 0; off < len(stream); off += 9973 {
		end := off + 9973
		if end > len(stream) {
			end = len(stream)
		}
		csb, rep, err := ctx.Submit(&CRB{
			Func: FCDecompress, Wrap: WrapRaw, Input: stream[off:end],
			DecompState: st, NotFinal: end != len(stream),
		})
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("resume at %d: %v %v %s", off, err, csb.CC, csb.Detail)
		}
		got = append(got, csb.Output...)
		totalCycles += rep.TotalCycles
	}
	if !st.Done() {
		t.Fatal("state not done")
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("resumable decode mismatch: %d vs %d bytes", len(got), len(src))
	}
	if st.Produced() != int64(len(src)) {
		t.Fatalf("produced %d", st.Produced())
	}
	if totalCycles <= 0 {
		t.Fatal("no cycles")
	}
}

func TestResumableDecompressionRejectsWrappedInput(t *testing.T) {
	ctx := newP9Context(t)
	st := NewDecompState(0)
	csb, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapGzip, Input: []byte{1}, DecompState: st})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCInvalidCRB {
		t.Fatalf("CC = %s", csb.CC)
	}
}

func TestResumableDecompressionCorrupt(t *testing.T) {
	ctx := newP9Context(t)
	st := NewDecompState(0)
	csb, _, err := ctx.Submit(&CRB{
		Func: FCDecompress, Wrap: WrapRaw, DecompState: st,
		Input: []byte{0x07, 0xFF, 0xFF}, // final+reserved block type
	})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCDataCorrupt {
		t.Fatalf("CC = %s (%s)", csb.CC, csb.Detail)
	}
}
