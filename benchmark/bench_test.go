package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
)

// quickPass runs one pass of a workload in-process at smoke-test size.
func quickPass(t *testing.T, workload, mode string, seed int64, outDir string) *result {
	t.Helper()
	cfg := runConfig{Workload: workload, Seed: seed, Seconds: 1, Quick: true, Mode: mode, Start: time.Now(), OutDir: outDir}
	res, err := runPass(workloadByName(workload), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkloadsQuick runs every workload untraced, traced and (where it
// trains) in the reference configuration, and checks the contract of the
// emitted metrics: every metric that applies to the workload is there,
// nothing else is, every gated metric is non-zero, every check passes —
// including that tracing changed neither the params nor the virtual step.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res := quickPass(t, w.Name, modeMeasure, 1, dir)
			res.Metrics["peak_rss_mb"] = 1 // the driver loop reads it from the child's rusage
			if res.Hash != "" {
				ref := quickPass(t, w.Name, modeReference, 1, dir).Hash
				res.check("param-hash", res.Hash == ref, "measured %s, reference configuration %s", res.Hash, ref)
				golden, err := referenceHash(w.Name, 1, res.Steps, true, func() (string, error) {
					t.Fatalf("no quick golden for %s seed 1; run go run ./benchmark -regen-golden -quick", w.Name)
					return "", nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Hash != golden {
					t.Errorf("params hash to %s, golden.json says %s", res.Hash, golden)
				}
			}
			mergeTraced(res, quickPass(t, w.Name, modeTraced, 1, dir))
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range metrics {
				v, ok := res.Metrics[m.Name]
				switch {
				case m.appliesTo(w.Name) && !ok:
					t.Errorf("metric %s not emitted", m.Name)
				case !m.appliesTo(w.Name) && ok:
					t.Errorf("metric %s emitted though it does not apply", m.Name)
				case m.Gated && v <= 0:
					t.Errorf("gated metric %s = %v, must be positive", m.Name, v)
				}
				if m.Unit == "" {
					t.Errorf("metric %s has no unit", m.Name)
				}
			}
			for name := range res.Metrics {
				if metricByName(name) == nil {
					t.Errorf("metric %s emitted but not in the table", name)
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestWrongGoldenFails proves the oracle bites: with a golden that
// disagrees, the measured pass is reported incorrect.
func TestWrongGoldenFails(t *testing.T) {
	saved := goldenData
	defer func() { goldenData = saved }()
	goldenData = []byte(`{"caffenet-2replica@quick": {"1": "0000000000000000"}}`)
	res := quickPass(t, wlCaffeNet, modeMeasure, 1, t.TempDir())
	res.Metrics["peak_rss_mb"] = 1 // the driver loop reads it from the child's rusage
	if wr := summarize(wlCaffeNet, []*result{res}, false); !wr.Correct {
		t.Fatalf("the run is incorrect before the golden is consulted: %v", wr.Checks)
	}
	want, err := referenceHash(wlCaffeNet, 1, res.Steps, true, func() (string, error) {
		t.Fatal("the golden was not consulted")
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.check("param-hash", res.Hash == want, "mismatch")
	if wr := summarize(wlCaffeNet, []*result{res}, false); wr.Correct {
		t.Fatal("a wrong golden left the run correct")
	}
	// A seed without a golden falls back to the reference configuration.
	if h, err := referenceHash(wlCaffeNet, 99, res.Steps, true, func() (string, error) { return "fresh", nil }); err != nil || h != "fresh" {
		t.Fatalf("unseen seed: got %q, %v", h, err)
	}
}

func TestTraceLauncherRefusesDAGAndPool(t *testing.T) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
	net, err := models.BuildGoogLeNetSlice(ctx, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableDAG(true)
	if _, err := installTraceLauncher(ctx, net.DAGEnabled(), true); err == nil {
		t.Error("wrapped the launcher of a net with the DAG on")
	}
	pooled := dnn.NewParallelContext(dnn.HostLauncher{}, 1, hostpool.New(2))
	if _, err := installTraceLauncher(pooled, false, true); err == nil {
		t.Error("wrapped the launcher of a pooled context")
	}
	if _, ok := ctx.L.(*traceLauncher); ok {
		t.Error("a refused install still replaced the launcher")
	}
	tl, err := installTraceLauncher(ctx, false, true)
	if err != nil || ctx.L != dnn.Launcher(tl) {
		t.Errorf("serial context: err %v", err)
	}
	// The wrapper must keep the transfer paths and must not grow the
	// interfaces that would let the DAG scheduler run behind it.
	if _, ok := ctx.L.(dnn.Uploader); !ok {
		t.Error("wrapper dropped UploadBytes")
	}
	if _, ok := ctx.L.(dnn.InputStager); !ok {
		t.Error("wrapper dropped StageInput")
	}
	if _, ok := ctx.L.(dnn.LayerSessionForker); ok {
		t.Error("wrapper can fork layer sessions")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5}, {0.2, 1}, {0.21, 2}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty sample must give 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, StartNs: 30, EndNs: 60},    // overlaps span 1
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 130},   // runs past the parent
		{ID: 4, Parent: 1, StartNs: 15, EndNs: 20},    // grandchild: not the root's
		{ID: 5, Parent: -1, StartNs: 200, EndNs: 250}, // childless
	}
	want := []time.Duration{100 - (50 + 10), 30 - 5, 30, 40, 5, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %v, want %v", i, got, want[i])
		}
	}
}

func TestParseTag(t *testing.T) {
	for _, c := range []struct{ tag, key, chain string }{
		{"conv1/fwd|conv1/n3", "conv1/fwd", "3"},
		{"conv1/bwd|conv1/n12", "conv1/bwd", "12"},
		{"solver/update|conv1.weight", "solver/update", ""},
		{"relu1/fwd|relu1", "relu1/fwd", ""},
		{"conv_1/fwd|conv_1/next", "conv_1/fwd", ""},
		{"conv1/n3", "", "3"},
		{"", "", ""},
	} {
		if key, chain := parseTag(c.tag); key != c.key || chain != c.chain {
			t.Errorf("parseTag(%q) = (%q, %q), want (%q, %q)", c.tag, key, chain, c.key, c.chain)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := metricByName("simgpu.steady_step_virtual_ms")
	if steady.boundOn(wlCifar) != exactBound || steady.boundOn(wlGoogLeNet) != dagBound {
		t.Error("the steady virtual step must be exact everywhere but on googlenet-branchy (2 %)")
	}
	for _, name := range []string{"step_virtual_ms", "glp_speedup_x"} {
		if m := metricByName(name); m.boundOn(wlSim) != amortizedBound || m.boundOn(wlGoogLeNet) != dagBound {
			t.Errorf("%s must be held to the amortized bound everywhere but on googlenet-branchy (2 %%)", name)
		}
	}
	rec := func(med, lo, hi float64) metricRecord { return metricRecord{Median: med, Min: lo, Max: hi} }
	wall := &metricDef{Name: "w", Better: "lower", Bound: 0.10}
	rate := &metricDef{Name: "r", Better: "higher", Bound: 0.10}
	exact := &metricDef{Name: "e", Better: "lower", Bound: exactBound}
	for _, c := range []struct {
		m    *metricDef
		a, b metricRecord
		want string
	}{
		{wall, rec(100, 99, 101), rec(105, 104, 106), "ok"},
		{wall, rec(100, 99, 101), rec(111, 110, 112), "REGRESSION"},
		{wall, rec(100, 90, 115), rec(111, 110, 112), "unresolved"},
		{rate, rec(100, 99, 101), rec(89, 88, 90), "REGRESSION"},
		{rate, rec(100, 99, 101), rec(120, 119, 121), "ok"},
		{exact, rec(15, 15, 15), rec(15, 15, 15), "ok"},
		{exact, rec(15, 15, 15), rec(15.000001, 15.000001, 15.000001), "REGRESSION"},
		{exact, rec(15, 15, 15), rec(14, 14, 14), "improved"},
		{&metricDef{Name: "i", Better: "lower"}, rec(1, 1, 1), rec(9, 9, 9), "info"},
	} {
		if got, _ := verdict(c.m, c.m.Bound, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v gives %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestCompareRecords: a record that lost a workload or a bounded metric has
// regressed, and records taken under different conditions are refused.
func TestCompareRecords(t *testing.T) {
	mk := func() *record {
		one := func(v float64) metricRecord { return metricRecord{Median: v, Min: v, Max: v, Values: []float64{v}} }
		return &record{
			Envelope: envelope{Commit: "a", GOMAXPROCS: 2, NumCPU: 2, ISA: "avx2", Seed: 1, Reps: 3, Seconds: 10},
			Workloads: map[string]*workloadRecord{
				wlSim:   {Correct: true, Metrics: map[string]metricRecord{"step_wall_ms_p50": one(20), "core.tracker.tp_ms": one(3)}},
				wlCifar: {Correct: true, Metrics: map[string]metricRecord{"step_wall_ms_p50": one(500)}},
			},
		}
	}
	for _, c := range []struct {
		name      string
		change    func(b *record)
		regressed bool
		refused   bool
	}{
		{"same", func(b *record) { b.Envelope.Commit = "b" }, false, false},
		{"slower within bound", func(b *record) {
			b.Workloads[wlSim].Metrics["step_wall_ms_p50"] = metricRecord{Median: 22, Min: 22, Max: 22}
		}, false, false},
		{"workload gone", func(b *record) { delete(b.Workloads, wlCifar) }, true, false},
		{"bounded metric gone", func(b *record) { delete(b.Workloads[wlSim].Metrics, "step_wall_ms_p50") }, true, false},
		{"informational metric gone", func(b *record) { delete(b.Workloads[wlSim].Metrics, "core.tracker.tp_ms") }, false, false},
		{"no longer correct", func(b *record) { b.Workloads[wlSim].Correct = false }, true, false},
		{"other seed", func(b *record) { b.Envelope.Seed = 2 }, false, true},
		{"other window", func(b *record) { b.Envelope.Seconds = 5 }, false, true},
		{"other size", func(b *record) { b.Envelope.Quick = true }, false, true},
		{"other cores", func(b *record) { b.Envelope.GOMAXPROCS = 1 }, false, true},
		{"other ISA", func(b *record) { b.Envelope.ISA = "sse2" }, false, true},
	} {
		b := mk()
		c.change(b)
		regressed, err := compareRecords(io.Discard, mk(), b)
		if (err != nil) != c.refused || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v refused=%v", c.name, regressed, err, c.regressed, c.refused)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root and
// the tables in spec.go from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from go run ./benchmark -benchmark-json")
	}
	seen := map[string]bool{}
	for _, m := range metrics {
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestClosingLine checks the last line of output: exactly the four keys,
// the gated metrics untraced and the rest traced.
func TestClosingLine(t *testing.T) {
	res := newResult(runConfig{Workload: wlSim})
	res.Attempted = 3
	for _, m := range metrics {
		res.Metrics[m.Name] = 1.5
	}
	for _, trace := range []bool{false, true} {
		rec := record{Workloads: map[string]*workloadRecord{wlSim: summarize(wlSim, []*result{res}, trace)}}
		var buf bytes.Buffer
		if err := printClosingLine(&buf, []string{wlSim}, rec, trace); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		last := strings.TrimSpace(buf.String())
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			t.Fatalf("closing line is not one JSON object: %v", err)
		}
		if len(line) != 4 {
			t.Errorf("closing line has %d keys, want correct, attempted, failed, metrics", len(line))
		}
		var got map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			_, ok := got[m.Name]
			if ok != (m.Gated != trace) {
				t.Errorf("trace=%v: metric %s present=%v", trace, m.Name, ok)
			}
		}
	}
}
