package models

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/simgpu"
)

// TestFig7TimelinePinned holds the simulator to the virtual timeline it
// produced before its event engine moved to run-length residency and
// recycled launch records: on every cell of the Fig. 7 grid (the four nets
// at sim-paper's batches × K40C, P100, TitanXP × naive and GLP4NN arms), the
// FNV-64a of every completion record of the steady steps 3 and 4 — name,
// tag, launch sequence number, stream, queued, start and end in ns — must
// equal the value recorded at commit f62cad8.
func TestFig7TimelinePinned(t *testing.T) {
	want := map[string]uint64{
		"CIFAR10/K40C/glp=false":      0x6b08f89fae854cda,
		"CIFAR10/K40C/glp=true":       0xdd87683dafce9f68,
		"CIFAR10/P100/glp=false":      0xbcd4674dc747f46,
		"CIFAR10/P100/glp=true":       0x3a345f47b5208b04,
		"CIFAR10/TitanXP/glp=false":   0xaa221b16753634c,
		"CIFAR10/TitanXP/glp=true":    0x689445250c0b9756,
		"Siamese/K40C/glp=false":      0x67d84df055a3cc50,
		"Siamese/K40C/glp=true":       0xc91d046e38144f5b,
		"Siamese/P100/glp=false":      0x25a9b79d42609e12,
		"Siamese/P100/glp=true":       0x50f792b14f12e28d,
		"Siamese/TitanXP/glp=false":   0x1e93990389b98188,
		"Siamese/TitanXP/glp=true":    0xcd5e0eae95ef2f7d,
		"GoogLeNet/K40C/glp=false":    0xc6ea8a7d529a241f,
		"GoogLeNet/K40C/glp=true":     0x9e09bcb571a915c1,
		"GoogLeNet/P100/glp=false":    0x6f95a6fde4a3b683,
		"GoogLeNet/P100/glp=true":     0x4d1cb3cfde27a8bb,
		"GoogLeNet/TitanXP/glp=false": 0x9e6b03d3d16d67f3,
		"GoogLeNet/TitanXP/glp=true":  0xd0b3fed51588e0b3,
		"CaffeNet/K40C/glp=false":     0x320a3d10581fb467,
		"CaffeNet/K40C/glp=true":      0x41177f2d525dc1d5,
		"CaffeNet/P100/glp=false":     0x659d601d074c2953,
		"CaffeNet/P100/glp=true":      0xefd1cf2639d042ff,
		"CaffeNet/TitanXP/glp=false":  0x66f8fbc31d185d09,
		"CaffeNet/TitanXP/glp=true":   0x2cff9d318d2ad2c1,
	}
	for _, n := range fig7Nets {
		net := buildTimingOnly(t, n.name, n.batch)
		for _, spec := range []simgpu.DeviceSpec{simgpu.TeslaK40C, simgpu.TeslaP100, simgpu.TitanXP} {
			for _, glp := range []bool{false, true} {
				cell := fmt.Sprintf("%s/%s/glp=%v", n.name, spec.Name, glp)
				dev, step := timingOnlyArm(t, net, spec, glp)
				h := fnv.New64a()
				var buf [8]byte
				put := func(v int64) {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
				for i := 1; i <= 4; i++ {
					if err := step(); err != nil {
						t.Fatalf("%s step %d: %v", cell, i, err)
					}
					recs, err := dev.Trace()
					if err != nil {
						t.Fatal(err)
					}
					if i < 3 {
						continue
					}
					for _, r := range recs {
						h.Write([]byte(r.Name))
						h.Write([]byte{0})
						h.Write([]byte(r.Tag))
						h.Write([]byte{0})
						put(int64(r.Seq))
						put(int64(r.StreamID))
						put(r.Queued.Nanoseconds())
						put(r.Start.Nanoseconds())
						put(r.End.Nanoseconds())
					}
				}
				if got := h.Sum64(); got != want[cell] {
					t.Errorf("%s: timeline hash %#x, want %#x", cell, got, want[cell])
				}
			}
		}
	}
}
