package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/simgpu"
)

func quickCfg() Config {
	return Config{Quick: true, Iterations: 1, Seed: 1}
}

func runExp(t *testing.T, id string, cfg Config) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	out := buf.String()
	if out == "" {
		t.Fatalf("experiment %s produced no output", id)
	}
	return out
}

// TestRegistryComplete pins the registry to exactly the paper's
// thirteen artefacts, in paper order: a fourteenth experiment is a decision
// this test makes visible, not something the registry can grow into.
func TestRegistryComplete(t *testing.T) {
	want := "table1 table3 table4 table5 fig2 fig3 fig4 fig7 fig8 fig9 fig10 table6 fig11"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("registered experiments:\n got %s\nwant %s", got, want)
	}
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown experiment resolved")
	}
	if list := strings.Join(IDs(), ", "); !strings.Contains(err.Error(), list) {
		t.Fatalf("unknown-id error %q does not list the valid ids %q", err, list)
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s is missing metadata", e.ID)
		}
	}
}

func TestStaticTables(t *testing.T) {
	out := runExp(t, "table1", quickCfg())
	for _, want := range []string{"Kepler", "Pascal", "128", "Volta"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
	out = runExp(t, "table3", quickCfg())
	for _, want := range []string{"K40C", "P100", "TitanXP", "56 x 64", "HBM2.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q:\n%s", want, out)
		}
	}
	out = runExp(t, "table4", quickCfg())
	for _, want := range []string{"MNIST", "60000", "1200000", "CIFAR-10"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 missing %q:\n%s", want, out)
		}
	}
	out = runExp(t, "table5", quickCfg())
	if !strings.Contains(out, "conv_6") || !strings.Contains(out, "227") {
		t.Errorf("table5 incomplete:\n%s", out)
	}
}

func TestFig2QuickShapes(t *testing.T) {
	out := runExp(t, "fig2", quickCfg())
	for _, layer := range []string{"conv1", "conv2", "conv3", "conv4", "conv5"} {
		if !strings.Contains(out, layer) {
			t.Errorf("fig2 missing %s:\n%s", layer, out)
		}
	}
	if !strings.Contains(out, "1.00x") {
		t.Errorf("fig2 missing unit baseline:\n%s", out)
	}
}

func TestFig3TimelineShowsOverlap(t *testing.T) {
	out := runExp(t, "fig3", quickCfg())
	if !strings.Contains(out, "1 stream(s)") || !strings.Contains(out, "4 stream(s)") {
		t.Fatalf("fig3 missing arms:\n%s", out)
	}
	if !strings.Contains(out, "legend") || !strings.Contains(out, "im2col") {
		t.Fatalf("fig3 missing timeline legend:\n%s", out)
	}
	// The 4-stream section must actually use multiple stream rows.
	fourStreams := out[strings.Index(out, "4 stream(s)"):]
	rows := strings.Count(fourStreams, "stream ")
	if rows < 3 {
		t.Fatalf("fig3 4-stream timeline shows %d stream rows:\n%s", rows, out)
	}
}

func TestFig4ReportsPerDeviceOptimum(t *testing.T) {
	cfg := quickCfg()
	cfg.Devices = []string{"K40C", "P100"}
	out := runExp(t, "fig4", cfg)
	if !strings.Contains(out, "K40C") || !strings.Contains(out, "P100") {
		t.Fatalf("fig4 missing device columns:\n%s", out)
	}
}

func TestFig7SpeedupShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Devices = []string{"P100"}
	cfg.Networks = []string{"CIFAR10", "GoogLeNet"}
	out := runExp(t, "fig7", cfg)
	if !strings.Contains(out, "CIFAR10") || !strings.Contains(out, "GoogLeNet") {
		t.Fatalf("fig7 missing networks:\n%s", out)
	}
	if !strings.Contains(out, "x (") {
		t.Fatalf("fig7 missing speedup cells:\n%s", out)
	}
}

func TestFig8StreamsArePositive(t *testing.T) {
	cfg := quickCfg()
	cfg.Devices = []string{"P100"}
	cfg.Networks = []string{"CIFAR10"}
	out := runExp(t, "fig8", cfg)
	for _, layer := range []string{"conv1", "conv2", "conv3"} {
		if !strings.Contains(out, layer) {
			t.Fatalf("fig8 missing %s:\n%s", layer, out)
		}
	}
	// No zero-stream rows: every profiled conv layer must have a plan.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "CIFAR10" && fields[2] == "0" {
			t.Fatalf("fig8 reported 0 streams for %s:\n%s", fields[1], out)
		}
	}
}

func TestFig9ComparesBothNets(t *testing.T) {
	cfg := quickCfg()
	out := runExp(t, "fig9", cfg)
	if !strings.Contains(out, "CIFAR10") || !strings.Contains(out, "TitanXP") {
		t.Fatalf("fig9 missing CIFAR10/TitanXP case:\n%s", out)
	}
	if !strings.Contains(out, "Siamese") || !strings.Contains(out, "P100") {
		t.Fatalf("fig9 missing Siamese/P100 case:\n%s", out)
	}
	if !strings.Contains(out, "conv1") {
		t.Fatalf("fig9 missing per-layer rows:\n%s", out)
	}
}

func TestFig10MemoryShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Devices = []string{"P100"}
	cfg.Networks = []string{"Siamese"}
	out := runExp(t, "fig10", cfg)
	if !strings.Contains(out, "mem_cupti") || !strings.Contains(out, "Siamese") {
		t.Fatalf("fig10 incomplete:\n%s", out)
	}
}

func TestTable6OverheadShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Devices = []string{"K40C"}
	cfg.Networks = []string{"CIFAR10"}
	out := runExp(t, "table6", cfg)
	for _, want := range []string{"T_p", "T_a", "T_total", "ratio", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table6 missing %q:\n%s", want, out)
		}
	}
}

func TestFig11ConvergenceQuick(t *testing.T) {
	cfg := quickCfg()
	out := runExp(t, "fig11", cfg)
	if !strings.Contains(out, "Caffe loss") || !strings.Contains(out, "GLP4NN loss") {
		t.Fatalf("fig11 missing series:\n%s", out)
	}
	if !strings.Contains(out, "final:") {
		t.Fatalf("fig11 missing summary:\n%s", out)
	}
}

func TestHelpers(t *testing.T) {
	if layerName("conv1/fwd|conv1/n3") != "conv1" {
		t.Fatal("layerName glp tag")
	}
	if layerName("conv1/n3") != "conv1" {
		t.Fatal("layerName naive tag")
	}
	if layerName("pool1") != "pool1" {
		t.Fatal("layerName bare tag")
	}
	recs := []simgpu.KernelRecord{
		{Tag: "conv1/n0", Start: 10, End: 30},
		{Tag: "conv1/n1", Start: 20, End: 50},
		{Tag: "pool1", Start: 60, End: 80},
	}
	order, spans := perLayerSpans(recs)
	if len(order) != 2 || order[0] != "conv1" {
		t.Fatalf("order = %v", order)
	}
	if spans["conv1"] != 40*time.Nanosecond || spans["pool1"] != 20*time.Nanosecond {
		t.Fatalf("spans = %v", spans)
	}
	tb := newTable("a", "b")
	tb.add("x", "y")
	var buf bytes.Buffer
	tb.write(&buf)
	if !strings.Contains(buf.String(), "x") {
		t.Fatal("table add/write")
	}
	if _, err := deviceSpecs(Config{Devices: []string{"nope"}}); err == nil {
		t.Fatal("bad device accepted")
	}
	cfg, err := Config{}.withDefaults()
	if err != nil || len(cfg.Devices) != 3 || cfg.Iterations != 3 {
		t.Fatalf("defaults: %+v, %v", cfg, err)
	}
	w, _ := models.Get("CaffeNet")
	if (Config{Quick: true}).batchFor(w) != 16 {
		t.Fatal("quick batch for CaffeNet")
	}
	if (Config{}).batchFor(w) != 256 {
		t.Fatal("full batch for CaffeNet")
	}
}

// TestNegativeCountsRefused: a negative Iterations or ConvergenceIters, or
// an unknown device or network name, is refused by every experiment that
// reads the config (it used to run with the defaults — or, for a name, run
// the experiments that never look it up — and succeed), before any work;
// zero still means the default.
func TestNegativeCountsRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string // in the refusal
	}{
		{"Iterations", Config{Quick: true, Iterations: -3}, "negative"},
		{"ConvergenceIters", Config{Quick: true, ConvergenceIters: -2}, "negative"},
		{"both", Config{Quick: true, Iterations: -1, ConvergenceIters: -1}, "negative"},
		{"Devices", Config{Quick: true, Devices: []string{"P100", "Nope"}}, `unknown device "Nope"`},
		{"Networks", Config{Quick: true, Networks: []string{"Nope"}}, `unknown workload "Nope"`},
	} {
		if _, err := c.cfg.withDefaults(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: withDefaults error = %v, want a refusal containing %q", c.name, err, c.want)
		}
		for _, id := range []string{"fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10", "table6", "fig11"} {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Run(c.cfg, &buf); err == nil || buf.Len() != 0 {
				t.Errorf("%s: %s ran (err %v, %d bytes written), want a refusal before output", c.name, id, err, buf.Len())
			}
		}
	}
	if cfg, err := (Config{Iterations: 0, ConvergenceIters: 0}).withDefaults(); err != nil || cfg.Iterations != 3 || cfg.ConvergenceIters != 300 {
		t.Fatalf("zero counts: %+v, %v; want the defaults 3 and 300", cfg, err)
	}
}
