package nx

import (
	"errors"
	"testing"
	"time"

	"nxzip/internal/faultinject"
)

// chaosDevice builds a device with a fast recovery budget (so storm
// tests trip their caps in microseconds, not milliseconds) and the given
// injection profile installed.
func chaosDevice(p faultinject.Profile, tune func(*DeviceConfig)) (*Device, *faultinject.Injector) {
	cfg := P9Device()
	cfg.Submit = SubmitPolicy{
		MaxFaultRounds:   4,
		MaxBackoffWaits:  4,
		BackoffBase:      time.Microsecond,
		BackoffMax:       2 * time.Microsecond,
		MaxPasteAttempts: 1 << 20,
	}
	if tune != nil {
		tune(&cfg)
	}
	dev := NewDevice(cfg)
	inj := faultinject.New(42, p)
	dev.SetInjector(inj)
	return dev, inj
}

func TestCCErrMapping(t *testing.T) {
	cases := []struct {
		cc   CC
		want error
	}{
		{CCTranslationFault, ErrTranslationFault},
		{CCTargetSpace, ErrTargetSpace},
		{CCDataCorrupt, ErrDataCorrupt},
		{CCInvalidCRB, ErrInvalidCRB},
		{CCCRCError, ErrCRCMismatch},
	}
	seen := map[error]bool{}
	for _, c := range cases {
		got := c.cc.Err()
		if !errors.Is(got, c.want) {
			t.Errorf("CC %s Err() = %v, want %v", c.cc, got, c.want)
		}
		if seen[got] {
			t.Errorf("CC %s maps to an error already used by another CC", c.cc)
		}
		seen[got] = true
	}
	if CCSuccess.Err() != nil {
		t.Errorf("CCSuccess.Err() = %v, want nil", CCSuccess.Err())
	}
}

func TestInjectedCCBecomesTypedError(t *testing.T) {
	cases := []struct {
		name    string
		profile faultinject.Profile
		want    error
	}{
		{"crc-error", faultinject.Profile{CRCError: 1}, ErrCRCMismatch},
		{"data-check", faultinject.Profile{DataCheck: 1}, ErrDataCorrupt},
		{"invalid-crb", faultinject.Profile{InvalidCRB: 1}, ErrInvalidCRB},
	}
	src := []byte("the quick brown fox jumps over the lazy dog")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev, _ := chaosDevice(c.profile, nil)
			ctx := dev.OpenContext(1)
			defer ctx.Close()
			_, _, err := ctx.Compress(src, FCCompressFHT, WrapGzip, true)
			if !errors.Is(err, c.want) {
				t.Fatalf("injected %s: err = %v, not errors.Is %v", c.name, err, c.want)
			}
		})
	}
}

func TestFaultStormTripsRoundCap(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{TransFault: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	_, _, err := ctx.Compress([]byte("storm storm storm"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrFaultStorm) {
		t.Fatalf("permanent injected faults: err = %v, want ErrFaultStorm", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrFaultStorm must be retryable (another device may be healthy)")
	}
	if inj.Injected(faultinject.TransFault) == 0 {
		t.Fatal("injector recorded no translation faults")
	}
	if got := dev.MetricsSnapshot().Counter("nx.fault_storms", ""); got != 1 {
		t.Fatalf("nx.fault_storms = %d, want 1", got)
	}
}

func TestEngineHangSurfaces(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{EngineHang: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	_, _, err := ctx.Compress([]byte("hang"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrEngineHang) {
		t.Fatalf("hung engine: err = %v, want ErrEngineHang", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrEngineHang must be retryable")
	}
	// The credit must have been returned even though the CSB never was:
	// a second request on a healed device still has credits to paste with.
	dev.SetInjector(nil)
	if _, _, err := ctx.Compress([]byte("healed"), FCCompressFHT, WrapGzip, true); err != nil {
		t.Fatalf("request after hang: %v (credit leaked by hang path?)", err)
	}
}

func TestDeviceOfflineAndRevive(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	inj.SetOffline(true)
	if !dev.Offline() {
		t.Fatal("Device.Offline() false after SetOffline(true)")
	}
	_, _, err := ctx.Compress([]byte("dead"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrDeviceOffline) {
		t.Fatalf("offlined device: err = %v, want ErrDeviceOffline", err)
	}
	inj.SetOffline(false)
	if _, _, err := ctx.Compress([]byte("alive"), FCCompressFHT, WrapGzip, true); err != nil {
		t.Fatalf("revived device: %v", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	csb, _, err := ctx.Submit(&CRB{
		Func: FCCompressFHT, Wrap: WrapGzip, Input: []byte("late"),
		Deadline: time.Now().Add(-time.Millisecond),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v (csb %v), want ErrDeadlineExceeded", err, csb)
	}
	if got := dev.MetricsSnapshot().Counter("nx.deadline_exceeded", ""); got != 1 {
		t.Fatalf("nx.deadline_exceeded = %d, want 1", got)
	}
}

func TestCancelation(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	cancel := make(chan struct{})
	close(cancel)
	_, _, err := ctx.Submit(&CRB{
		Func: FCCompressFHT, Wrap: WrapGzip, Input: []byte("nope"),
		Cancel: cancel,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled request: err = %v, want ErrCanceled", err)
	}
	if Retryable(err) {
		t.Fatal("ErrCanceled must not be retryable — the caller gave up")
	}
}

func TestCreditLeakWedgesWindow(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{CreditLeak: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := []byte("leak leak leak leak")
	// Every completion leaks its credit; the window has a finite pool, so
	// requests succeed until it runs dry, then paste bounces with an empty
	// FIFO until the backoff cap trips ErrDeviceBusy.
	var err error
	for i := 0; i < 64; i++ {
		if _, _, err = ctx.Compress(src, FCCompressFHT, WrapGzip, true); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrDeviceBusy) {
		t.Fatalf("wedged window: err = %v, want ErrDeviceBusy", err)
	}
	if inj.Injected(faultinject.CreditLeak) == 0 {
		t.Fatal("injector recorded no credit leaks")
	}
	if got := dev.Switchboard().Stats().CreditLeaks; got == 0 {
		t.Fatal("switchboard stats recorded no credit leaks")
	}
}

func TestPasteRejectionBackoffAccounting(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{PasteReject: 0.6}, func(cfg *DeviceConfig) {
		cfg.Submit.MaxBackoffWaits = 64
	})
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := []byte("backoff backoff backoff backoff")
	var rejects, waits int
	var backoffTime time.Duration
	for i := 0; i < 16; i++ {
		_, rep, err := ctx.Compress(src, FCCompressFHT, WrapGzip, true)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		rejects += rep.PasteRejects
		waits += rep.BackoffWaits
		backoffTime += rep.BackoffTime
		if rep.BackoffWaits > 0 && rep.WastedCycles == 0 {
			t.Fatal("backoff waits taken but WastedCycles = 0 — waits not charged")
		}
	}
	if rejects == 0 {
		t.Fatal("0.6 paste-reject rate over 16 requests produced no rejects")
	}
	if waits == 0 || backoffTime == 0 {
		t.Fatalf("rejected pastes with an empty FIFO must backoff: waits=%d time=%v", waits, backoffTime)
	}
	snap := dev.MetricsSnapshot()
	if got := snap.Counter("nx.backoff_waits", ""); got != int64(waits) {
		t.Fatalf("nx.backoff_waits = %d, reports summed to %d", got, waits)
	}
}

// TestResumeRequestsExemptFromInjectedCC pins the state-safety contract:
// a CRB carrying DecompState has already advanced the inflate session by
// the time a CC would be injected, so the engine never flips its
// completion — otherwise the stream owner could neither retry (double
// feed) nor surface a truthful error.
func TestResumeRequestsExemptFromInjectedCC(t *testing.T) {
	clean := NewDevice(P9Device())
	cctx := clean.OpenContext(1)
	defer cctx.Close()
	plain := []byte("resume me resume me resume me resume me")
	raw, _, err := cctx.Compress(plain, FCCompressFHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}

	dev, _ := chaosDevice(faultinject.Profile{CRCError: 1, DataCheck: 1, InvalidCRB: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	st := NewDecompState(0)
	csb, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapRaw, Input: raw, DecompState: st})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("resume request got injected CC %s — resume state is now unrecoverable", csb.CC)
	}
	if string(csb.Output) != string(plain) {
		t.Fatalf("resume output mismatch: %q", csb.Output)
	}
}

// submitEntry is one way into the submission protocol, driven with a
// single request. run returns the request's report (zero on error) and
// its caller-visible error.
type submitEntry struct {
	name   string
	queued bool // goes through the VAS paste, so paste rejects apply
	run    func(ctx *Context, crb CRB) (Report, error)
}

var submitEntries = []submitEntry{
	{"SubmitInto", true, func(ctx *Context, crb CRB) (Report, error) {
		var (
			csb CSB
			rep Report
		)
		err := ctx.SubmitInto(&crb, &csb, &rep)
		return rep, err
	}},
	{"SubmitBatch", true, func(ctx *Context, crb CRB) (Report, error) {
		entries := []BatchEntry{{CRB: crb}}
		if err := ctx.SubmitBatch(entries); err != nil {
			return Report{}, err
		}
		return entries[0].Rep, entries[0].Err
	}},
	{"SyncCall", false, func(ctx *Context, crb CRB) (Report, error) {
		_, rep, err := ctx.SyncCall(&crb)
		if rep == nil {
			return Report{}, err
		}
		return *rep, err
	}},
}

// TestChaosSubmitProtocolContract holds every way into the device to
// one protocol on a z15 device: a fault storm trips after exactly
// MaxFaultRounds injected faults, the Deadline/Cancel/offline gates
// fail with the same typed error and bump the same counters, and paste
// backoff is charged as wasted cycles.
func TestChaosSubmitProtocolContract(t *testing.T) {
	scenarios := []struct {
		name    string
		profile faultinject.Profile
		prep    func(crb *CRB, inj *faultinject.Injector)
		want    error
		counter string // device counter that must read 1 afterwards
	}{
		{name: "fault-storm", profile: faultinject.Profile{TransFault: 1},
			want: ErrFaultStorm, counter: "nx.fault_storms"},
		{name: "expired-deadline", want: ErrDeadlineExceeded, counter: "nx.deadline_exceeded",
			prep: func(crb *CRB, _ *faultinject.Injector) { crb.Deadline = time.Now().Add(-time.Millisecond) }},
		{name: "closed-cancel", want: ErrCanceled,
			prep: func(crb *CRB, _ *faultinject.Injector) {
				cancel := make(chan struct{})
				close(cancel)
				crb.Cancel = cancel
			}},
		{name: "offline", want: ErrDeviceOffline, counter: "nx.offline_rejects",
			prep: func(_ *CRB, inj *faultinject.Injector) { inj.SetOffline(true) }},
	}
	src := []byte("one protocol for every submission path, one protocol for every path")
	z15 := func(cfg *DeviceConfig) {
		cfg.Engine = Z15Engine()
		cfg.Submit.MaxBackoffWaits = 64
	}
	request := func(t *testing.T, ctx *Context) CRB {
		srcVA, err := ctx.MapBuffer(len(src), true)
		if err != nil {
			t.Fatal(err)
		}
		dstVA, err := ctx.MapBuffer(2*len(src)+1024, true)
		if err != nil {
			t.Fatal(err)
		}
		return CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src, SourceVA: srcVA, TargetVA: dstVA}
	}
	for _, e := range submitEntries {
		for _, sc := range scenarios {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				dev, inj := chaosDevice(sc.profile, z15)
				ctx := dev.OpenContext(1)
				defer ctx.Close()
				crb := request(t, ctx)
				if sc.prep != nil {
					sc.prep(&crb, inj)
				}
				_, err := e.run(ctx, crb)
				if !errors.Is(err, sc.want) {
					t.Fatalf("err = %v, want %v", err, sc.want)
				}
				if sc.want == ErrFaultStorm {
					if got, want := inj.Injected(faultinject.TransFault), int64(dev.cfg.Submit.MaxFaultRounds); got != want {
						t.Fatalf("%d injected faults before the storm tripped, want MaxFaultRounds = %d", got, want)
					}
				}
				if sc.counter != "" {
					if got := dev.MetricsSnapshot().Counter(sc.counter, ""); got != 1 {
						t.Fatalf("%s = %d, want 1", sc.counter, got)
					}
				}
			})
		}
		if !e.queued {
			continue
		}
		t.Run(e.name+"/paste-reject-backoff", func(t *testing.T) {
			dev, _ := chaosDevice(faultinject.Profile{PasteReject: 0.6}, z15)
			ctx := dev.OpenContext(1)
			defer ctx.Close()
			waits := 0
			for i := 0; i < 32; i++ {
				rep, err := e.run(ctx, request(t, ctx))
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if rep.BackoffWaits > 0 && rep.WastedCycles == 0 {
					t.Fatalf("request %d took %d backoff waits but WastedCycles = 0", i, rep.BackoffWaits)
				}
				if rep.TotalCycles < rep.WastedCycles {
					t.Fatalf("request %d: TotalCycles %d below WastedCycles %d", i, rep.TotalCycles, rep.WastedCycles)
				}
				waits += rep.BackoffWaits
			}
			if waits == 0 {
				t.Fatal("a 0.6 paste-reject rate over 32 requests took no backoff waits")
			}
		})
	}
}
