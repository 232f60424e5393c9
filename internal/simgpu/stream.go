package simgpu

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stream is a CUDA-like stream: an in-order command queue. Work on different
// non-default streams may overlap on the device; the default stream has
// legacy barrier semantics (a kernel on it waits for all prior work on every
// stream and blocks all later work).
type Stream struct {
	id        int
	dev       *Device
	isDefault bool
	destroyed atomic.Bool
	tail      execRef // last kernel launched into this stream
	listed    bool    // in the device's barrier tail set
}

// ID returns the stream's device-unique identifier; the default stream is 0.
func (s *Stream) ID() int { return s.id }

// IsDefault reports whether this is the device's default stream.
func (s *Stream) IsDefault() bool { return s.isDefault }

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Synchronize blocks (in virtual time) until all work queued on this stream
// has completed. With a lazy event engine every synchronization drains the
// whole device, which is conservative but preserves all ordering guarantees.
func (s *Stream) Synchronize() (time.Duration, error) {
	return s.dev.Synchronize()
}

func (s *Stream) String() string {
	if s.isDefault {
		return "stream<default>"
	}
	return fmt.Sprintf("stream<%d>", s.id)
}
