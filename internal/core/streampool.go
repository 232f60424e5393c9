package core

import (
	"errors"
	"sync"

	"repro/internal/simgpu"
)

// StreamPool is the concurrent stream pool of the stream manager module: a
// grow-only set of CUDA streams on one device, handed out round-robin. The
// default stream stays reserved for synchronization and
// synchronization-sensitive kernels, per the paper's design.
type StreamPool struct {
	dev *simgpu.Device

	mu      sync.Mutex
	streams []*simgpu.Stream
}

// Device returns the owning device.
func (p *StreamPool) Device() *simgpu.Device { return p.dev }

// EnsureSize grows the pool to at least n streams (paying the stream
// creation overhead on the device's host timeline). Each stream creation is
// retried with backoff on transient device errors; if the device still
// refuses, growth stops early and the achieved size is returned with the
// error. A short pool stays fully usable — Stream wraps indices around
// whatever exists — so callers can degrade instead of aborting.
func (p *StreamPool) EnsureSize(n int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	for len(p.streams) < n {
		var s *simgpu.Stream
		if s, err = createStream(p.dev); err != nil {
			break
		}
		p.streams = append(p.streams, s)
	}
	return len(p.streams), err
}

// createStream creates one stream on dev, retrying transient failures with
// exponential backoff charged to the host timeline.
func createStream(dev *simgpu.Device) (*simgpu.Stream, error) {
	var s *simgpu.Stream
	err := retry(dev, createAttempts, nil, nil, func() error {
		var err error
		s, err = dev.CreateStream()
		return err
	})
	return s, err
}

// Quarantine takes a stream that keeps failing launches out of rotation: it
// is destroyed and a fresh stream is created into its slot, so round-robin
// dispatch keeps its width. If the device refuses a replacement the slot is
// removed and the pool shrinks — Stream's modulo then spreads chains over
// the survivors. Reports whether the stream was in the pool (the default
// stream and foreign streams are never quarantined).
func (p *StreamPool) Quarantine(s *simgpu.Stream) bool {
	if s == nil || s.IsDefault() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, have := range p.streams {
		if have != s {
			continue
		}
		// Best effort: a destroy failure must not keep a poisoned stream in
		// rotation.
		_ = p.dev.DestroyStream(s)
		if ns, err := createStream(p.dev); err == nil {
			p.streams[i] = ns
		} else {
			p.streams = append(p.streams[:i], p.streams[i+1:]...)
		}
		return true
	}
	return false
}

// Size returns the current pool size.
func (p *StreamPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.streams)
}

// Stream returns pool stream i (mod size); with an empty pool it returns
// nil, which launches on the default stream.
func (p *StreamPool) Stream(i int) *simgpu.Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.streams) == 0 {
		return nil
	}
	// Euclidean modulo: negating i would overflow on math.MinInt and maps
	// -1 and 1 to the same stream; shifting the remainder does neither.
	i %= len(p.streams)
	if i < 0 {
		i += len(p.streams)
	}
	return p.streams[i]
}

// Release destroys all pool streams. A destroy failure does not abort the
// sweep: every stream is still attempted, the pool is emptied regardless (so
// a retried Release cannot double-destroy the already-freed streams), and the
// individual errors are joined in the return value.
func (p *StreamPool) Release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for _, s := range p.streams {
		if err := p.dev.DestroyStream(s); err != nil {
			errs = append(errs, err)
		}
	}
	p.streams = nil
	return errors.Join(errs...)
}

// StreamManager is the machine-shared stream manager module: one pool per
// device.
type StreamManager struct {
	mu    sync.Mutex
	pools map[*simgpu.Device]*StreamPool
}

// NewStreamManager builds the shared stream manager.
func NewStreamManager() *StreamManager {
	return &StreamManager{pools: map[*simgpu.Device]*StreamPool{}}
}

// Pool returns (creating on demand) the device's stream pool.
func (m *StreamManager) Pool(dev *simgpu.Device) *StreamPool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pools[dev]
	if p == nil {
		p = &StreamPool{dev: dev}
		m.pools[dev] = p
	}
	return p
}
