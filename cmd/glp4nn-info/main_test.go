package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// TestOccupancyRefusals: a launch configuration a device refuses prints
// that device's launch-validation reason in place of an occupancy, and
// printOccupancy reports whether any device accepts the configuration (the
// command exits 1 when none does).
func TestOccupancyRefusals(t *testing.T) {
	for _, c := range []struct {
		name           string
		threads, smem  int
		accepted       bool
		refused        int // rows carrying a refusal
		reason, absent string
	}{
		{"fits everywhere", 256, 16384, true, 0, "", "refused"},
		{"threads over every limit", 100000, 0, false, 3, "100000 threads/block exceeds device limit 1024", "occupancy 0.00"},
		{"smem over every SM", 256, 70000, false, 3, "70000 B shared memory exceeds per-SM capacity", "occupancy 0.00"},
		{"smem only P100 holds", 256, 60000, true, 2, "60000 B shared memory exceeds per-SM capacity 49152 B", ""},
	} {
		var out bytes.Buffer
		cfg := simgpu.LaunchConfig{Grid: simgpu.D1(64), Block: simgpu.D1(c.threads), SharedMemBytes: c.smem}
		if got := printOccupancy(&out, cfg); got != c.accepted {
			t.Errorf("%s: accepted = %v, want %v\n%s", c.name, got, c.accepted, out.String())
		}
		text := out.String()
		if n := strings.Count(text, "refused: "); n != c.refused {
			t.Errorf("%s: %d refused rows, want %d\n%s", c.name, n, c.refused, text)
		}
		if c.reason != "" && !strings.Contains(text, c.reason) {
			t.Errorf("%s: no %q in\n%s", c.name, c.reason, text)
		}
		if c.absent != "" && strings.Contains(text, c.absent) {
			t.Errorf("%s: %q printed in\n%s", c.name, c.absent, text)
		}
		if rows := strings.Count(text, "\n  "); rows != len(simgpu.DeviceCatalog) {
			t.Errorf("%s: %d device rows, want %d", c.name, rows, len(simgpu.DeviceCatalog))
		}
	}
}

// TestISAEnvIgnored: a GLP4NN_ISA value that init ignored — unknown, or
// above the detected ceiling — gets one line saying so; unset, "auto" and
// every runnable level get none.
func TestISAEnvIgnored(t *testing.T) {
	for _, env := range []string{"", "auto"} {
		if note := isaEnvIgnored(env); note != "" {
			t.Errorf("GLP4NN_ISA=%q: note %q, want none", env, note)
		}
	}
	for _, lv := range tensor.AvailableISAs() {
		if note := isaEnvIgnored(lv.String()); note != "" {
			t.Errorf("GLP4NN_ISA=%s is runnable: note %q, want none", lv, note)
		}
	}
	if note := isaEnvIgnored("bogus"); !strings.Contains(note, `GLP4NN_ISA ignored: tensor: unknown ISA level "bogus"`) {
		t.Errorf("unknown level: note %q", note)
	}
	if tensor.DetectedISA() < tensor.ISAAVX2 {
		if note := isaEnvIgnored("avx2"); !strings.Contains(note, "GLP4NN_ISA ignored: avx2 is above the detected ceiling") {
			t.Errorf("avx2 above the ceiling: note %q", note)
		}
	}
}
