package nxzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/faultinject"
	"nxzip/internal/flightrec"
	"nxzip/internal/lz4"
	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// lifecycle_test.go pins the one request lifecycle at every public entry
// point: whichever path a request takes, it is admitted, digested once,
// counted once in its tenant's series, and fails over and falls back
// with the same events.

// lifecycleEntry is one public entry point, driven so that it issues
// exactly one root-level request. run returns the caller-visible error
// and checks the output when there is one.
type lifecycleEntry struct {
	name string
	op   string // digest op name
	run  func(t *testing.T, acc *Accelerator, src, gz []byte) error
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
	}
}

func gunzipped(t *testing.T, gz, want []byte) {
	t.Helper()
	plain, err := SoftwareGunzip(gz)
	if err != nil {
		t.Fatalf("output does not gunzip: %v", err)
	}
	sameBytes(t, "gunzipped output", plain, want)
}

var lifecycleEntries = []lifecycleEntry{
	{"one-shot", "compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		out, _, err := acc.CompressGzip(src)
		if err == nil {
			gunzipped(t, out, src)
		}
		return err
	}},
	{"format-lz4", "lz4-compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		out, _, err := acc.CompressFormat(FormatLZ4, src)
		if err == nil {
			plain, derr := lz4.Decompress(out, len(src))
			if derr != nil {
				t.Fatalf("LZ4 output does not decode: %v", derr)
			}
			sameBytes(t, "LZ4 round trip", plain, src)
		}
		return err
	}},
	{"into-compress", "compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		var m Metrics
		out, err := acc.CompressGzipInto(make([]byte, 0, 2*len(src)), src, &m)
		if err == nil {
			gunzipped(t, out, src)
		}
		return err
	}},
	{"into-decompress", "decompress", func(t *testing.T, acc *Accelerator, src, gz []byte) error {
		var m Metrics
		out, err := acc.DecompressGzipInto(make([]byte, 0, len(src)+64), gz, &m)
		if err == nil {
			sameBytes(t, "Into decompress", out, src)
		}
		return err
	}},
	{"batch", "batch-compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		reqs := []*BatchRequest{{Src: src}}
		acc.CompressBatch(reqs)
		if reqs[0].Err == nil {
			gunzipped(t, reqs[0].Out, src)
		}
		return reqs[0].Err
	}},
	{"parallel-writer-member", "member-compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		var buf bytes.Buffer
		w := acc.NewParallelWriterChunk(&buf, 4*len(src), 1)
		if _, err := w.Write(src); err != nil {
			return err
		}
		err := w.Close()
		if err == nil {
			gunzipped(t, buf.Bytes(), src)
		}
		return err
	}},
	{"parallel-reader-member", "member-decompress", func(t *testing.T, acc *Accelerator, src, gz []byte) error {
		out, err := io.ReadAll(acc.NewParallelReader(bytes.NewReader(gz), 2))
		if err == nil {
			sameBytes(t, "parallel Reader", out, src)
		}
		return err
	}},
	{"stream-writer-segment", "stream-compress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		var buf bytes.Buffer
		w := acc.NewStreamWriterChunk(&buf, 4*len(src))
		if _, err := w.Write(src); err != nil {
			return err
		}
		err := w.Close()
		if err == nil {
			gunzipped(t, buf.Bytes(), src)
		}
		return err
	}},
	{"dict-decompress", "dict-decompress", func(t *testing.T, acc *Accelerator, src, _ []byte) error {
		dict := src[:1024]
		zd, err := deflate.CompressZlibDict(src, dict, deflate.Options{Level: 6})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := acc.DecompressZlibDict(zd, dict)
		if err == nil {
			sameBytes(t, "dictionary decompress", out, src)
		}
		return err
	}},
	{"stream-reader-segment", "stream-decompress", func(t *testing.T, acc *Accelerator, src, gz []byte) error {
		out, err := io.ReadAll(acc.NewStreamReader(bytes.NewReader(gz), 0))
		if err == nil {
			sameBytes(t, "StreamReader", out, src)
		}
		return err
	}},
}

// lifecycleScenario prepares a fresh one-device node for one entry and
// names the outcome every entry must reach on it.
type lifecycleScenario struct {
	name     string
	outcome  telemetry.Outcome
	class    admission.Class
	failover bool // EventFailover and EventFallback for the request
	wantErr  error
	setup    func(t *testing.T, node *Node, acc *Accelerator)
}

var lifecycleScenarios = []lifecycleScenario{
	{name: "clean", outcome: telemetry.OutcomeOK, class: admission.Interactive,
		setup: func(*testing.T, *Node, *Accelerator) {}},
	{name: "device-killed", outcome: telemetry.OutcomeDegraded, class: admission.Interactive, failover: true,
		setup: func(_ *testing.T, node *Node, _ *Accelerator) {
			node.InstallInjectors(7, faultinject.Profile{})[0].SetOffline(true)
		}},
	{name: "shed", outcome: telemetry.OutcomeShed, class: admission.Background, wantErr: admission.ErrOverloaded,
		setup: func(t *testing.T, node *Node, acc *Accelerator) {
			ctrl := node.EnableAdmission(overloadConfig(1, 20*time.Millisecond))
			// Hold the only slot: the ladder sheds background work.
			slot, _, err := ctrl.Admit(admission.AdmitRequest{Class: admission.Interactive, Tenant: 999})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(slot.Release)
			acc.SetPriority(admission.Background)
		}},
}

// TestChaosLifecycleContract runs every public entry point through every
// scenario on a fresh node and asserts the same lifecycle outcome: one
// digest for the one request, of the entry's op and the scenario's
// outcome; exactly one bump of the tenant's latency series, in the
// scenario's class/outcome cell; EventFailover then EventFallback
// carrying the request's ID when the device dies, and neither
// otherwise; the caller sees the scenario's error.
func TestChaosLifecycleContract(t *testing.T) {
	src := corpus.Generate(corpus.Text, 8<<10, 11)
	gz, err := SoftwareGzip(src, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range lifecycleScenarios {
		for _, e := range lifecycleEntries {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				node, err := OpenNode(P9Node(1))
				if err != nil {
					t.Fatal(err)
				}
				rec := node.EnableFlightRecorder("")
				acc := node.View()
				defer acc.Close()
				sc.setup(t, node, acc)

				err = e.run(t, acc, src, gz)
				switch {
				case sc.wantErr == nil && err != nil:
					t.Fatalf("unexpected error: %v", err)
				case sc.wantErr != nil && !errors.Is(err, sc.wantErr):
					t.Fatalf("err = %v, want %v", err, sc.wantErr)
				}

				d := onlyDigest(t, rec)
				if d.Op != e.op || d.Outcome != sc.outcome {
					t.Fatalf("digest op=%q outcome=%v, want op=%q outcome=%v", d.Op, d.Outcome, e.op, sc.outcome)
				}
				if d.Tenant != acc.TenantID() {
					t.Fatalf("digest tenant %d, want %d", d.Tenant, acc.TenantID())
				}
				if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("req %d:", d.Req)) {
					t.Fatalf("error %q does not carry its request ID %d", err, d.Req)
				}

				var failovers, fallbacks int
				for _, ev := range node.Bus().Tail(256) {
					switch ev.Type {
					case obs.EventFailover:
						failovers++
					case obs.EventFallback:
						fallbacks++
					default:
						continue
					}
					if ev.Req != d.Req {
						t.Fatalf("%s event for req %d, the request is %d", ev.Type, ev.Req, d.Req)
					}
				}
				if sc.failover && (failovers == 0 || fallbacks != 1) {
					t.Fatalf("device killed: %d failover and %d fallback events, want >=1 and 1", failovers, fallbacks)
				}
				if !sc.failover && failovers+fallbacks != 0 {
					t.Fatalf("%d failover and %d fallback events, want none", failovers, fallbacks)
				}

				tenant := TenantLabel(acc.TenantID())
				cell := tenant + "/" + sc.class.String() + "/" + sc.outcome.String()
				var bumps int64
				snap := node.Metrics()
				for _, h := range snap.Histograms {
					if h.Name == TenantLatencyMetric && strings.HasPrefix(h.Label, tenant+"/") {
						bumps += h.Count
					}
				}
				if h, ok := snap.Histogram(TenantLatencyMetric, cell); !ok || h.Count != 1 || bumps != 1 {
					t.Fatalf("tenant series: %s count %d (present %v), %d bumps in all, want exactly one in %s",
						cell, h.Count, ok, bumps, cell)
				}
			})
		}
	}
}

// onlyDigest returns the recorder's one digest, failing when the
// request digested zero or several times.
func onlyDigest(t *testing.T, rec *flightrec.Recorder) telemetry.Digest {
	t.Helper()
	if n := rec.Seq(); n != 1 {
		var ops []string
		for _, d := range rec.Digests(8) {
			ops = append(ops, d.Op)
		}
		t.Fatalf("%d digests for one request (%v), want exactly 1", n, ops)
	}
	return rec.Digests(1)[0]
}

// TestStatsCarryPasteCost: every multi-request object's Stats folds the
// whole device cost of its requests, paste bounces and backoff included.
// With injected paste rejects on a one-device node, each object's
// PasteRejects must equal the rejects its own traffic provoked at the
// switchboard, and the bounces must show as wasted cycles.
func TestStatsCarryPasteCost(t *testing.T) {
	src := corpus.Generate(corpus.Text, 4<<20, 12)
	gz, err := SoftwareGzip(src, 6)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 256 << 10
	run := map[string]func(acc *Accelerator) (Metrics, error){
		"Writer": func(acc *Accelerator) (Metrics, error) {
			w := acc.NewWriterChunk(io.Discard, chunk)
			_, err := w.Write(src)
			if err == nil {
				err = w.Close()
			}
			return w.Stats, err
		},
		"ParallelWriter": func(acc *Accelerator) (Metrics, error) {
			w := acc.NewParallelWriterChunk(io.Discard, chunk, 2)
			_, err := w.Write(src)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			return w.Stats, err
		},
		"StreamWriter": func(acc *Accelerator) (Metrics, error) {
			w := acc.NewStreamWriterChunk(io.Discard, chunk)
			_, err := w.Write(src)
			if err == nil {
				err = w.Close()
			}
			return w.Stats, err
		},
		"StreamReader": func(acc *Accelerator) (Metrics, error) {
			r := acc.NewStreamReader(bytes.NewReader(gz), 0)
			_, err := io.Copy(io.Discard, r)
			return r.Stats, err
		},
	}
	for name, fn := range run {
		t.Run(name, func(t *testing.T) {
			node, err := OpenNode(P9Node(1))
			if err != nil {
				t.Fatal(err)
			}
			node.InstallInjectors(3, faultinject.Profile{PasteReject: 0.3})
			acc := node.View()
			defer acc.Close()
			stats, err := fn(acc)
			if err != nil {
				t.Fatal(err)
			}
			vs := node.VASStats()
			rejects := vs.CreditRejects + vs.FIFORejects + vs.InjectedRejects
			if rejects == 0 {
				t.Fatal("the injector provoked no paste rejects")
			}
			if int64(stats.PasteRejects) != rejects {
				t.Fatalf("Stats.PasteRejects = %d, the switchboard bounced %d pastes", stats.PasteRejects, rejects)
			}
			if stats.WastedCycles == 0 {
				t.Fatal("paste bounces cost no wasted cycles in Stats")
			}
		})
	}
}
