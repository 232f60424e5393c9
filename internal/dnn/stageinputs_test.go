package dnn

import (
	"testing"
)

// stagerLauncher is a HostLauncher that records staged and uploaded byte
// counts, implementing both Uploader and InputStager.
type stagerLauncher struct {
	HostLauncher
	staged   []int64
	uploaded []int64
}

func (l *stagerLauncher) StageInput(n int64) error { l.staged = append(l.staged, n); return nil }
func (l *stagerLauncher) UploadBytes(n int64) error {
	l.uploaded = append(l.uploaded, n)
	return nil
}

// uploaderLauncher implements only Uploader — the serial baseline shape.
type uploaderLauncher struct {
	HostLauncher
	uploaded []int64
}

func (l *uploaderLauncher) UploadBytes(n int64) error {
	l.uploaded = append(l.uploaded, n)
	return nil
}

// TestStageInputsUsesStager: every input blob is staged exactly once, in
// sorted name order (deterministic modeled timelines), with its byte size.
func TestStageInputsUsesStager(t *testing.T) {
	net := buildTinyNet(t, 4, 1)
	l := &stagerLauncher{}
	ctx := NewContext(l, 1)
	if err := net.StageInputs(ctx); err != nil {
		t.Fatal(err)
	}
	// Inputs sorted: "data" (4×2×8×8 floats), then "label" (4 floats).
	want := []int64{4 * 2 * 8 * 8 * 4, 4 * 4}
	if len(l.staged) != len(want) {
		t.Fatalf("staged %d copies, want %d", len(l.staged), len(want))
	}
	for i, n := range want {
		if l.staged[i] != n {
			t.Fatalf("staged[%d] = %d bytes, want %d", i, l.staged[i], n)
		}
	}
	if len(l.uploaded) != 0 {
		t.Fatalf("stager launcher fell back to UploadBytes %d times", len(l.uploaded))
	}
}

// TestStageInputsFallsBackToUploader: launchers without a copy stream get
// the default-stream upload path, same blobs, same bytes.
func TestStageInputsFallsBackToUploader(t *testing.T) {
	net := buildTinyNet(t, 4, 1)
	l := &uploaderLauncher{}
	ctx := NewContext(l, 1)
	if err := net.StageInputs(ctx); err != nil {
		t.Fatal(err)
	}
	want := []int64{4 * 2 * 8 * 8 * 4, 4 * 4}
	if len(l.uploaded) != len(want) {
		t.Fatalf("uploaded %d copies, want %d", len(l.uploaded), len(want))
	}
	for i, n := range want {
		if l.uploaded[i] != n {
			t.Fatalf("uploaded[%d] = %d bytes, want %d", i, l.uploaded[i], n)
		}
	}
	// A launcher with neither interface is a no-op, not an error.
	if err := net.StageInputs(NewContext(HostLauncher{}, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestFeedStageStep: the canonical loop body of the asynchronous input
// pipeline — feed, stage, step — stages every input once per iteration.
func TestFeedStageStep(t *testing.T) {
	net := buildTinyNet(t, 4, 1)
	l := &stagerLauncher{}
	ctx := NewContext(l, 1)
	solver := NewSolver(net, ctx, CIFAR10QuickSolver())

	fed := 0
	feed := func(n *Net) error {
		fed++
		fillTinyInputs(t, n, 2)
		return nil
	}
	if err := feed(net); err != nil {
		t.Fatal(err)
	}
	if err := net.StageInputs(ctx); err != nil {
		t.Fatal(err)
	}
	loss, err := solver.Step()
	if err != nil {
		t.Fatal(err)
	}
	if fed != 1 {
		t.Fatalf("feed ran %d times, want 1", fed)
	}
	if len(l.staged) != 2 {
		t.Fatalf("staged %d copies, want 2 (data, label)", len(l.staged))
	}
	if loss <= 0 {
		t.Fatalf("suspicious loss %v", loss)
	}
}
