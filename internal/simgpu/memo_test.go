package simgpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

type soupKind int

const (
	soupLaunch soupKind = iota
	soupCopy
	soupSync
)

// soupOp is one step of a device soup: a launch with its injector decision,
// a host-to-device copy, or a synchronize.
type soupOp struct {
	kind   soupKind
	stream int // index into the soup's streams; 0 is the default stream
	k      Kernel
	fault  Fault
	bytes  int64
}

// soup is a seeded device workload run from a reset: the host clock
// advanced by shift, then ops. records draws the profiler-record drops and
// truncations.
type soup struct {
	spec    DeviceSpec
	streams int
	records FaultPlan
	shift   time.Duration
	ops     []soupOp
}

// newSoup draws a soup on the test device, with a latency floor or a single
// kernel slot on some seeds. Its launch faults and hangs come from a
// FaultPlan; op 0 is a hung launch of a power-of-two grid, op 1 a copy, and
// op n/2 a sync between two launches, for the near-miss cases to move.
func newSoup(seed int64) soup {
	rng := rand.New(rand.NewSource(seed))
	s := soup{
		spec:    testSpec,
		streams: 1 + rng.Intn(4),
		records: FaultPlan{Seed: seed, DropRecord: 0.1, TruncateRecord: 0.1},
	}
	switch rng.Intn(3) {
	case 1:
		s.spec.KernelLatencyFloor = 2 * time.Microsecond
	case 2:
		s.spec.Arch = "Tesla" // one kernel slot
	}
	const hang = 3 * time.Microsecond
	plan := FaultPlan{Seed: seed, Launch: 0.05, Hang: 0.1, HangDelay: hang}.Injector()
	n := 12 + rng.Intn(40)
	for i := 0; i < n; i++ {
		op := soupOp{stream: rng.Intn(s.streams + 1)}
		fixed := i <= 1 || (i >= n/2-1 && i <= n/2+1)
		switch r := rng.Intn(10); {
		case i == n/2 || (!fixed && r == 9):
			op.kind = soupSync
		case i == 1 || (!fixed && r == 8):
			op.kind, op.bytes = soupCopy, 1+rng.Int63n(100_000)
		default:
			grid := 1 + rng.Intn(64)
			if i == 0 || rng.Intn(2) == 0 {
				grid = 1 << rng.Intn(7)
			}
			op.k = Kernel{
				Name:   "k",
				Config: LaunchConfig{Grid: D1(grid), Block: D1(32 * (1 + rng.Intn(8))), SharedMemBytes: rng.Intn(3) * 4096},
				Cost:   Cost{FLOPs: rng.Float64() * 1e6, Bytes: rng.Float64() * 5e5},
			}
			op.fault = plan.Decide(OpLaunch, "k")
			switch i {
			case 0:
				op.fault = Fault{Delay: hang}
			case n/2 - 1, n/2 + 1:
				op.fault.Err = nil
			}
		}
		s.ops = append(s.ops, op)
	}
	return s
}

// soupInjector replays a soup's launch decisions in order and its record
// decisions from a fresh injector, so every run of the soup, on any device,
// meets the same faults. Tests drive it from one goroutine.
type soupInjector struct {
	launches []Fault
	records  *PlanInjector
}

func (in *soupInjector) Decide(op Op, name string) Fault {
	switch op {
	case OpLaunch:
		f := in.launches[0]
		in.launches = in.launches[1:]
		return f
	case OpRecord:
		return in.records.Decide(op, name)
	}
	return Fault{}
}

// device builds a device for s with its streams; index 0 is the default.
func (s soup) device() (*Device, *soupInjector, []*Stream) {
	inj := &soupInjector{}
	d := NewDevice(s.spec, WithInjector(inj))
	streams := []*Stream{nil}
	for i := 0; i < s.streams; i++ {
		streams = append(streams, mustStream(d))
	}
	return d, inj, streams
}

// soupRun is what a run of a soup observed: the records, with sequence
// numbers counted from the run's start, the counters, the cumulative ones
// as deltas over the run, and the host clock.
type soupRun struct {
	recs []KernelRecord
	st   Stats
	host time.Duration
}

func (s soup) run(t *testing.T, d *Device, inj *soupInjector, streams []*Stream) soupRun {
	t.Helper()
	before, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResetClocks(); err != nil {
		t.Fatal(err)
	}
	*inj = soupInjector{records: s.records.Injector()}
	for _, op := range s.ops {
		if op.kind == soupLaunch {
			inj.launches = append(inj.launches, op.fault)
		}
	}
	seq0 := d.LaunchSeq()
	d.AdvanceHost(s.shift)
	for i, op := range s.ops {
		var err error
		switch op.kind {
		case soupLaunch:
			k := op.k
			if err = d.Launch(&k, streams[op.stream]); op.fault.Err != nil {
				err = nil // refused as scripted
			}
		case soupCopy:
			err = d.MemcpyHostToDevice(op.bytes, streams[op.stream])
		case soupSync:
			_, err = d.Synchronize()
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	r := soupRun{recs: traceOK(t, d)}
	for i := range r.recs {
		r.recs[i].Seq -= seq0
	}
	if r.st, err = d.Stats(); err != nil {
		t.Fatal(err)
	}
	r.st.Launches -= before.Launches
	r.st.Syncs -= before.Syncs
	r.st.StreamsMade -= before.StreamsMade
	r.st.RecordsLost -= before.RecordsLost
	r.st.ReplayedLaunches -= before.ReplayedLaunches
	r.host = d.HostTime()
	return r
}

// sameRun fails t unless got equals want in every record, counter (float
// ones by bits, replays apart) and the host clock.
func sameRun(t *testing.T, what string, got, want soupRun) {
	t.Helper()
	if !slices.Equal(got.recs, want.recs) {
		t.Fatalf("%s: records differ from a fresh device's:\n got %v\nwant %v", what, got.recs, want.recs)
	}
	g, w := got.st, want.st
	for _, f := range [][2]float64{{g.ThreadNSIntegral, w.ThreadNSIntegral}, {g.FLOPsRetired, w.FLOPsRetired}, {g.BytesRetired, w.BytesRetired}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: stats differ from a fresh device's:\n got %+v\nwant %+v", what, g, w)
		}
	}
	g.ReplayedLaunches, w.ReplayedLaunches = 0, 0
	if g != w || got.host != want.host {
		t.Fatalf("%s: stats or host time differ from a fresh device's:\n got %+v %v\nwant %+v %v", what, g, got.host, w, want.host)
	}
}

// nearMisses change one input of one launch, or where a segment starts,
// the least they can: each must be simulated, not replayed.
var nearMisses = []struct {
	name   string
	mutate func(s *soup)
}{
	{"flops+1ulp", func(s *soup) { c := &s.ops[0].k.Cost; c.FLOPs = math.Nextafter(c.FLOPs, math.Inf(1)) }},
	{"bytes+1ulp", func(s *soup) { c := &s.ops[0].k.Cost; c.Bytes = math.Nextafter(c.Bytes, math.Inf(1)) }},
	{"one-block-more", func(s *soup) { s.ops[0].k.Config.Grid.X++ }},
	{"blocks-doubled-same-per-block-cost", func(s *soup) { // exact: op 0's grid is a power of two
		k := &s.ops[0].k
		k.Config.Grid.X *= 2
		k.Cost.FLOPs *= 2
		k.Cost.Bytes *= 2
	}},
	{"wider-block", func(s *soup) { s.ops[0].k.Config.Block.X += 32 }},
	{"more-smem", func(s *soup) { s.ops[0].k.Config.SharedMemBytes += 1024 }},
	{"copy+1B", func(s *soup) { s.ops[1].bytes++ }},
	{"copy-as-kernel", func(s *soup) { // the same blocks, threads and bytes, no fixed duration
		op := &s.ops[1]
		op.kind, op.k = soupLaunch, Kernel{Name: "k", Config: LaunchConfig{Grid: D1(1), Block: D1(1)}, Cost: Cost{Bytes: float64(op.bytes)}}
	}},
	{"another-stream", func(s *soup) { s.ops[0].stream = (s.ops[0].stream + 1) % (s.streams + 1) }},
	{"hang-moved", func(s *soup) {
		for i := 1; i < len(s.ops); i++ {
			if op := &s.ops[i]; op.kind == soupLaunch && op.fault == (Fault{}) {
				op.fault, s.ops[0].fault = s.ops[0].fault, Fault{}
				return
			}
		}
		panic("soup has no healthy launch")
	}},
	{"sync-moved", func(s *soup) {
		i := len(s.ops) / 2
		s.ops[i], s.ops[i+1] = s.ops[i+1], s.ops[i]
	}},
	{"host+1ns", func(s *soup) { s.shift++ }},
}

// TestDrainReplayMatchesSimulation is the drain memo's differential
// oracle: seeded soups over default and non-default streams, copies,
// injected hangs, launch faults and record drops or truncations, latency
// floors, single-slot devices and several syncs per run, repeated on one
// device with a reset between, must each time observe exactly what a fresh
// device running the soup once observes — and from the second repetition on
// by replaying every drain. Near misses, one input moved the least it can,
// must be simulated and still match a fresh device.
func TestDrainReplayMatchesSimulation(t *testing.T) {
	fresh := func(s soup) soupRun {
		d, inj, streams := s.device()
		return s.run(t, d, inj, streams)
	}
	for seed := int64(1); seed <= 200; seed++ {
		s := newSoup(seed)
		want := fresh(s)
		d, inj, streams := s.device()
		for rep := 1; rep <= 3; rep++ {
			got := s.run(t, d, inj, streams)
			sameRun(t, fmt.Sprintf("seed %d repetition %d", seed, rep), got, want)
			if rep >= 2 && got.st.ReplayedLaunches != got.st.Launches {
				t.Fatalf("seed %d repetition %d: %d of %d launches replayed", seed, rep, got.st.ReplayedLaunches, got.st.Launches)
			}
		}
		for _, m := range nearMisses {
			v := s
			v.ops = slices.Clone(s.ops)
			m.mutate(&v)
			sameRun(t, fmt.Sprintf("seed %d before %s", seed, m.name), s.run(t, d, inj, streams), want)
			got := v.run(t, d, inj, streams)
			if got.st.ReplayedLaunches == got.st.Launches {
				t.Fatalf("seed %d %s: every launch replayed", seed, m.name)
			}
			sameRun(t, fmt.Sprintf("seed %d %s", seed, m.name), got, fresh(v))
		}
	}
}

// engineSegment is a three-kernel segment fed to the engine directly: the
// kernels' dependencies as offsets, and the clock it starts from.
type engineSegment struct {
	deps [][]int
	now  float64
}

// run drives g through seg from a reset and returns each completion as
// (seq, start, end), in order, followed by the end clock and accounting.
func (seg engineSegment) run(g *engine, done *[][3]float64) [][3]float64 {
	*done = (*done)[:0]
	g.reset()
	g.now = seg.now
	var execs []*kernelExec
	for i, flops := range []float64{4e5, 1e5, 2e5} {
		e := &kernelExec{name: "k", seq: i + 1, streamID: i + 1, issue: 1000, totalBlocks: 4, threads: 256, flopsPerBlock: flops}
		for _, d := range seg.deps[i] {
			e.deps = append(e.deps, execs[d])
		}
		execs = append(execs, e)
		g.enqueue(e)
	}
	if err := g.drain(); err != nil {
		panic(err)
	}
	return append(*done, [3]float64{g.now, g.threadNSIntegral, g.flopsRetired})
}

// TestDrainReplayMatchesSimulationEngine holds the memo to the inputs a
// device only derives from others — dependency lists, which its stream ids
// determine within a segment, and the start clock, which its launches never
// precede — by feeding the engine segments where only those differ.
func TestDrainReplayMatchesSimulationEngine(t *testing.T) {
	var done [][3]float64
	newG := func() *engine {
		return newEngine(testSpec, func(e *kernelExec) { done = append(done, [3]float64{float64(e.seq), e.start, e.end}) })
	}
	base := engineSegment{deps: [][]int{nil, nil, {1}}} // kernel 1 is the shortest
	for _, v := range []struct {
		name string
		seg  engineSegment
	}{
		{"dependency-moved", engineSegment{deps: [][]int{nil, nil, {0}}}},
		{"dependency-added", engineSegment{deps: [][]int{nil, nil, {1, 0}}}},
		{"dependency-dropped", engineSegment{deps: [][]int{nil, nil, nil}}},
		{"later-start-clock", engineSegment{deps: base.deps, now: 5000}},
	} {
		g := newG()
		want := slices.Clone(base.run(g, &done))
		if got := base.run(g, &done); !slices.Equal(got, want) || g.replayed != 3 {
			t.Fatalf("%s: base replay %v (%d replayed), want %v", v.name, got, g.replayed, want)
		}
		got := slices.Clone(v.seg.run(g, &done))
		if g.replayed != 3 {
			t.Fatalf("%s: replayed", v.name)
		}
		fresh := v.seg.run(newG(), &done)
		if !slices.Equal(got, fresh) {
			t.Fatalf("%s: %v, a fresh engine %v", v.name, got, fresh)
		}
		if slices.Equal(fresh, want) {
			t.Fatalf("%s: the outcome equals the base segment's, so a replay would pass", v.name)
		}
	}
}
