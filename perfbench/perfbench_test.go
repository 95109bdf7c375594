package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"nxzip/internal/lz77"
)

// deterministic builds a workload from seed and returns its reference
// figures plus the ledger's count-pass counters.
func deterministic(t *testing.T, name string, seed int64) (refTotals, lz77.HWStats, int64) {
	t.Helper()
	w, err := workloads[name](seed, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	ref, err := referencePass(w)
	if err != nil {
		t.Fatal(err)
	}
	tl := newLedgerRun(w, seed)
	tl.countPass()
	if tl.otherFailed != 0 {
		t.Fatalf("%s: %d failures in the count pass", name, tl.otherFailed)
	}
	return ref, tl.counts.hw, tl.counts.lzBytes
}

// TestSameSeedSameFigures: ratio, modelled rate and the LZ77 hardware
// counts depend on the seed alone.
func TestSameSeedSameFigures(t *testing.T) {
	for _, name := range []string{"bulk", "smallreq", "stream"} {
		t.Run(name, func(t *testing.T) {
			r1, hw1, n1 := deterministic(t, name, 7)
			r2, hw2, n2 := deterministic(t, name, 7)
			if r1 != r2 {
				t.Errorf("reference figures differ: %+v vs %+v", r1, r2)
			}
			if hw1 != hw2 || n1 != n2 {
				t.Errorf("lz77 counts differ: %v/%d vs %v/%d", hw1, n1, hw2, n2)
			}
			if r1.compOut == 0 || r1.modelNS == 0 || n1 == 0 {
				t.Errorf("empty figures: %+v, %d lz77 bytes", r1, n1)
			}
		})
	}
}

// TestSeedChangesInputs: another seed gives other inputs.
func TestSeedChangesInputs(t *testing.T) {
	inputs := func(name string, seed int64) [][]byte {
		w, err := workloads[name](seed, runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		switch w := w.(type) {
		case *bulk:
			return w.src
		case *smallreq:
			return w.per[0].pay
		case *stream:
			return [][]byte{w.src}
		}
		t.Fatalf("unknown workload type %T", w)
		return nil
	}
	for _, name := range []string{"bulk", "smallreq", "stream"} {
		a, b := inputs(name, 1), inputs(name, 2)
		for i := range a {
			if bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: input %d is the same for seeds 1 and 2", name, i)
			}
		}
		if c := inputs(name, 1); !bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seed 1 does not reproduce its inputs", name)
		}
	}
}

// TestCorruptedOutputFails: the byte-exact check can fail, and a failed
// check makes the command exit non-zero with correct=false.
func TestCorruptedOutputFails(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", "smallreq", "--seed", "3", "--seconds", "1", "--trace", trace, "--out", t.TempDir(), "--corrupt"}, &out, &errs)
		if code == 0 {
			t.Fatalf("trace %s: corrupted run exited 0\n%s", trace, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if r.Correct || r.Failed < 1 || r.Attempted < 1 {
			t.Errorf("trace %s: corrupted run reported %+v", trace, r)
		}
	}
}

// TestCleanRunPasses: the same run without corruption is correct and
// reports every end-to-end metric.
func TestCleanRunPasses(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "smallreq", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errs); code != 0 {
		t.Fatalf("clean run exited %d\n%s%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	for _, k := range e2eOrder {
		if m, ok := r.Metrics[k]; !ok || m.Value <= 0 {
			t.Errorf("metric %s missing or not positive: %+v", k, m)
		}
	}
}
