package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/simgpu"
)

func testKernel(name, tag string) *simgpu.Kernel {
	return &simgpu.Kernel{
		Name:   name,
		Tag:    tag,
		Config: simgpu.LaunchConfig{Grid: simgpu.D1(4), Block: simgpu.D1(128)},
		Cost:   simgpu.Cost{FLOPs: 1e6, Bytes: 1e5},
	}
}

// TestLaunchDoesNotMutateKernel: Runtime.Launch records a kernel under its
// tag prefixed with the scheduler key without writing to it. Historically it
// wrote the prefixed tag back into the caller's kernel, so a kernel launched
// twice accumulated a double prefix ("key|key|tag") and concurrent chains
// raced on the shared field. A descriptor's prebuilt key tag is used only
// under the key it was resolved for.
func TestLaunchDoesNotMutateKernel(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)

	dev.SetTracing(true)
	r.BeginLayer("conv/fwd")
	k := testKernel("sgemm", "s0")
	if err := r.Launch(k, 0); err != nil {
		t.Fatal(err)
	}
	if k.Tag != "s0" {
		t.Fatalf("caller's kernel mutated: Tag = %q, want %q", k.Tag, "s0")
	}
	// Re-launching the same kernel must not accumulate prefixes.
	if err := r.Launch(k, 1); err != nil {
		t.Fatal(err)
	}
	// A key tag resolved under this key is recorded as is; one resolved
	// under another key is not.
	for _, kt := range []string{"conv/fwd|s0", "conv/bwd|s0"} {
		pre := testKernel("sgemm", "s0")
		pre.KeyTag = kt
		if err := r.Launch(pre, 0); err != nil {
			t.Fatal(err)
		}
		if pre.Tag != "s0" || pre.KeyTag != kt {
			t.Fatalf("caller's descriptor mutated: %+v", pre)
		}
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.Tag != "conv/fwd|s0" {
			t.Fatalf("record tag = %q, want %q", rec.Tag, "conv/fwd|s0")
		}
	}
}

// TestLaunchEmptyTagNoDanglingPipe: a kernel with no tag of its own must be
// recorded under the bare scheduler key, not "key|".
func TestLaunchEmptyTagNoDanglingPipe(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)

	dev.SetTracing(true)
	r.BeginLayer("relu/fwd")
	if err := r.Launch(testKernel("relu", ""), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if got := recs[0].Tag; got != "relu/fwd" {
		t.Fatalf("record tag = %q, want %q (no dangling separator)", got, "relu/fwd")
	}
	if strings.HasSuffix(recs[0].Tag, "|") {
		t.Fatalf("record tag %q ends in a dangling separator", recs[0].Tag)
	}
}

// TestStreamPoolReleaseAfterError: a failing DestroyStream must not strand
// the remaining streams. Historically Release returned on the first error,
// leaking every stream after it and leaving them in the slice, so a retry
// double-destroyed the ones before it.
func TestStreamPoolReleaseAfterError(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	m := NewStreamManager()
	p := m.Pool(dev)
	p.EnsureSize(3)
	if dev.ActiveStreams() != 3 {
		t.Fatalf("active streams = %d, want 3", dev.ActiveStreams())
	}

	// Destroy the middle stream out from under the pool so its sweep fails
	// on it (double destroy) but must still free the other two.
	if err := dev.DestroyStream(p.Stream(1)); err != nil {
		t.Fatal(err)
	}
	err := p.Release()
	if err == nil {
		t.Fatal("Release: want joined error for the double destroy, got nil")
	}
	if !strings.Contains(err.Error(), "double destroy") {
		t.Fatalf("Release error = %v, want a double-destroy error", err)
	}
	if dev.ActiveStreams() != 0 {
		t.Fatalf("after Release: active streams = %d, want 0 (streams leaked)", dev.ActiveStreams())
	}
	if p.Size() != 0 {
		t.Fatalf("after Release: pool size = %d, want 0", p.Size())
	}
	// A retried Release must be a clean no-op, not a double destroy.
	if err := p.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
}

// TestFixedLauncherReleaseAfterError: same contract for the baseline
// launcher's pool.
func TestFixedLauncherReleaseAfterError(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	l := NewFixedLauncher(dev, 3)
	if err := dev.DestroyStream(l.streams[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err == nil {
		t.Fatal("Release: want error, got nil")
	}
	if dev.ActiveStreams() != 0 {
		t.Fatalf("after Release: active streams = %d, want 0", dev.ActiveStreams())
	}
	if err := l.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
}

// TestStreamNegativeIndex: Stream must map negative chain ids (including
// math.MinInt, where i = -i overflows to itself) into the pool instead of
// panicking.
func TestStreamNegativeIndex(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	p := NewStreamManager().Pool(dev)
	p.EnsureSize(3)
	for _, i := range []int{-1, -2, -3, -4, int(^uint(0) >> 1), -int(^uint(0)>>1) - 1} {
		if s := p.Stream(i); s == nil {
			t.Fatalf("Stream(%d) = nil", i)
		}
	}
	// Euclidean modulo: -1 and 1 land on distinct streams with size 3.
	if p.Stream(-1) == p.Stream(1) {
		t.Fatal("Stream(-1) == Stream(1): negation aliasing instead of Euclidean modulo")
	}
	if p.Stream(-1) != p.Stream(2) {
		t.Fatal("Stream(-1) != Stream(2): not Euclidean modulo")
	}
}

// TestProfilingFailureRecorded: when the profiler cannot run (sessions torn
// down), the runtime must record the failure in the ledger and pin the layer
// to a cached serial-fallback plan instead of silently retrying forever.
func TestProfilingFailureRecorded(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)
	// Kill the device's CUPTI session before any profiling starts.
	r.tracker.session(dev).Close()

	r.BeginLayer("conv/fwd")
	if w := r.Width(); w != 1 {
		t.Fatalf("width after failed profiling = %d, want 1 (serial fallback)", w)
	}
	plan, ok := r.Analyzer().Cached("conv/fwd")
	if !ok {
		t.Fatal("no cached plan: the failure was not pinned, it will retry forever")
	}
	if !plan.Fallback || plan.Streams != 1 {
		t.Fatalf("cached plan = %+v, want serial fallback", plan)
	}
	snap := r.Ledger().Snapshot()
	if snap.ProfileFailures != 1 {
		t.Fatalf("ProfileFailures = %d, want 1", snap.ProfileFailures)
	}
	// Subsequent sightings hit the cache: no new failures recorded.
	r.BeginLayer("conv/fwd")
	if got := r.Ledger().Snapshot().ProfileFailures; got != 1 {
		t.Fatalf("ProfileFailures after cache hit = %d, want 1", got)
	}
}

// TestCollectFailureRecorded: a profiling iteration whose collection fails
// must pin every pending layer to the serial fallback and count the failure.
func TestCollectFailureRecorded(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)

	// First sighting: profiling starts and the layer goes pending.
	r.BeginLayer("ip/fwd")
	if err := r.Launch(testKernel("gemv", "x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}

	// The session dies before the second sighting's collect.
	r.tracker.session(dev).Close()
	r.BeginLayer("ip/fwd")
	if w := r.Width(); w != 1 {
		t.Fatalf("width after failed collect = %d, want 1", w)
	}
	plan, ok := r.Analyzer().Cached("ip/fwd")
	if !ok || !plan.Fallback {
		t.Fatalf("cached plan = %+v ok=%v, want pinned serial fallback", plan, ok)
	}
	snap := r.Ledger().Snapshot()
	if snap.ProfileFailures != 1 {
		t.Fatalf("ProfileFailures = %d, want 1", snap.ProfileFailures)
	}
}

// TestCacheFallbackDoesNotOverwrite: a real analyzed plan must survive a
// later CacheFallback for the same key.
func TestCacheFallbackDoesNotOverwrite(t *testing.T) {
	a := NewAnalyzer(simgpu.TeslaP100, nil)
	p := newLayerProfile("k")
	real, err := a.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CacheFallback("k"); got != real {
		t.Fatalf("CacheFallback replaced the analyzed plan: %+v", got)
	}
	// And a fallback is idempotent.
	fb := a.CacheFallback("fresh")
	if !fb.Fallback || fb.Streams != 1 {
		t.Fatalf("fallback plan = %+v", fb)
	}
	if a.CacheFallback("fresh") != fb {
		t.Fatal("CacheFallback not idempotent")
	}
}

// TestLaunchTagsConcurrent: sessions launching the same kernel tags under
// their own keys at once each record key|tag, resolved once per pair. Run
// under -race.
func TestLaunchTagsConcurrent(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)
	keys := []string{"a/fwd", "b/fwd", "c/fwd"}
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			s := r.ForkLayerSession().(*LayerSession)
			s.BeginLayer(key)
			for i := 0; i < 40; i++ {
				if err := s.Launch(testKernel("k", fmt.Sprintf("n%d", i%4)), -1); err != nil {
					t.Error(err)
					return
				}
			}
		}(key)
	}
	wg.Wait()
	recs, err := dev.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]int{}
	for _, rec := range recs {
		tags[rec.Tag]++
	}
	if len(tags) != len(keys)*4 {
		t.Fatalf("record tags %v, want 4 per key", tags)
	}
	for _, key := range keys {
		for j := 0; j < 4; j++ {
			if n := tags[fmt.Sprintf("%s|n%d", key, j)]; n != 10 {
				t.Errorf("%s|n%d recorded %d times, want 10", key, j, n)
			}
		}
	}
}

// TestLaunchSteadyStateAllocs is the runtime's allocation ceiling (part of
// `make alloc`): once a key is planned, Runtime.Launch of a prebuilt
// descriptor — the session's plan and stream choice, and the key|tag launch
// tag the descriptor carries resolved — allocates nothing beyond the
// device's own share, which simgpu.TestEngineSteadyStateAllocs holds at
// zero. The descriptors are built as the dnn layers build theirs, with the
// key tag of the key they launch under.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	dev.SetTracing(false)
	fw := New()
	defer fw.Close()
	r := fw.Runtime(dev)
	var ks []*simgpu.Kernel
	for i := 0; i < 16; i++ {
		k := testKernel("sgemm", "conv/n"+strings.Repeat("i", i))
		k.KeyTag = "conv/fwd|" + k.Tag
		ks = append(ks, k)
	}
	launch := func() {
		for i, k := range ks {
			if err := r.Launch(k, i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dev.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	// Profile, analyse, first planned pass.
	for i := 0; i < 3; i++ {
		r.BeginLayer("conv/fwd")
		launch()
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	r.BeginLayer("conv/fwd")
	if r.Width() < 2 {
		t.Fatalf("conv/fwd planned at width %d, want a pooled plan", r.Width())
	}
	perLaunch := testing.AllocsPerRun(50, launch) / float64(len(ks))
	t.Logf("%.2f allocations per launch", perLaunch)
	if perLaunch > 0 {
		t.Errorf("a planned launch allocates %.2f times, want 0", perLaunch)
	}
}
