package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/dnn"
)

// percentile is the nearest-rank quantile of xs (q in [0,1]); 0 for an
// empty sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median (mean of the two central values for an
// even count), the statistic every wall-clock metric reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean averages ratios and per-cell step times across the Fig. 7 grid.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// paramHash is the correctness oracle's fingerprint: FNV-64a over the
// float32 bits of every parameter in Params() order.
func paramHash(net *dnn.Net) string {
	h := fnv.New64a()
	var buf [4096]byte
	for _, p := range net.Params() {
		data := p.Data.Data()
		for len(data) > 0 {
			n := len(data)
			if n > len(buf)/4 {
				n = len(buf) / 4
			}
			for i, v := range data[:n] {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
			}
			h.Write(buf[:4*n])
			data = data[n:]
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// bitsEqual compares two answers bit for bit (NaN-safe, -0 ≠ +0).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
