package main

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

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
