package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/models"
)

func baseOpts() options {
	return options{
		netName:  "CIFAR10",
		batch:    4,
		maxDelay: 2 * time.Millisecond,
		requests: 16,
		clients:  4,
		device:   "P100",
		seed:     1,
		mean:     200 * time.Microsecond,
	}
}

func TestServeCLISmoke(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.useGLP = true
	o.useDAG = true
	if err := run(&buf, o); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{"served 16 requests", "serving:", "glp4nn serving:", "p50"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestServeCLIFuse: a fused frozen engine serves the same load without
// failures and reports its fused-site count.
func TestServeCLIFuse(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.useFuse = true
	if err := run(&buf, o); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{"fuse=true", "fused GEMM epilogues:", "served 16 requests"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestServeCLIJSON(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.emitJSON = true
	if err := run(&buf, o); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var r report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if r.Requests != 16 || r.Net != "CIFAR10" || r.Batch != 4 {
		t.Fatalf("unexpected report: %+v", r)
	}
	if r.RPS <= 0 || r.ReqP99Ms < r.ReqP50Ms {
		t.Fatalf("implausible latency report: %+v", r)
	}
	if r.Failures != 0 {
		t.Fatalf("failures in fault-free serve: %+v", r)
	}
}

func TestServeCLIBadFlags(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.device = "H100"
	if err := run(&buf, o); err == nil {
		t.Fatal("unknown device accepted")
	}
	o = baseOpts()
	o.netName = "LeNet"
	if err := run(&buf, o); err == nil {
		t.Fatal("unknown net accepted")
	}
}

// TestServeCLIRefusesEmptyLoad: a load with no clients or no requests, an
// engine without rows, a negative -max-batch or a negative -mean-gap is
// refused before anything is built, instead of panicking (-clients -1),
// reporting "served 0 requests" as success, or silently serving at the
// training default batch (-batch 0) or the engine batch (-max-batch -3).
func TestServeCLIRefusesEmptyLoad(t *testing.T) {
	for _, c := range []struct{ clients, requests, batch int }{
		{-1, 16, 8}, {0, 16, 8}, {4, 0, 8}, {4, -3, 8}, {4, 16, 0}, {4, 16, -2},
	} {
		var buf bytes.Buffer
		o := baseOpts()
		o.clients, o.requests, o.batch = c.clients, c.requests, c.batch
		if err := run(&buf, o); err == nil {
			t.Errorf("-clients %d -requests %d -batch %d accepted", c.clients, c.requests, c.batch)
		}
		if buf.Len() != 0 {
			t.Errorf("-clients %d -requests %d -batch %d printed before refusing:\n%s", c.clients, c.requests, c.batch, buf.String())
		}
	}
	for _, c := range []struct {
		flag string
		set  func(o *options)
	}{
		{"-max-batch", func(o *options) { o.maxBatch = -3 }},
		{"-mean-gap", func(o *options) { o.mean = -time.Millisecond }},
	} {
		var buf bytes.Buffer
		o := baseOpts()
		c.set(&o)
		if err := run(&buf, o); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: err = %v, want a %s error", c.flag, err, c.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s printed before refusing:\n%s", c.flag, buf.String())
		}
	}
}

// TestServeCLIWeights closes the train→serve loop: a weights snapshot in the
// glp4nn-train -save-weights format is servable via -weights.
func TestServeCLIWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.glpw")

	// Build a differently-seeded net and save its weights — the CLI must
	// load them before freezing (seed only shapes the snapshot's content;
	// round-tripping it through the file is what's under test).
	w, err := models.Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	ctx := dnn.NewContext(dnn.HostLauncher{}, 42)
	net, err := w.Build(ctx, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	o := baseOpts()
	o.weights = path
	if err := run(&buf, o); err != nil {
		t.Fatalf("run with -weights: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "weights loaded from") {
		t.Fatalf("weights load not reported:\n%s", buf.String())
	}
}
