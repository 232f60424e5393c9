package dnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/tensor"
)

// Snapshot format: Caffe checkpoints its .caffemodel/.solverstate pair; we
// use one compact little-endian binary format for both weights and solver
// state.
//
//	magic "GLPW" | version u32 | param count u32
//	per param: name (u32 len + bytes) | rank u32 | dims u32... | f32 data
//
// Solver states append: magic "GLPS" | iter u32 | history blobs in the same
// per-param encoding, keyed by parameter name.

const (
	weightsMagic = "GLPW"
	solverMagic  = "GLPS"
	formatVer    = 1

	// Reader bounds: a corrupt or adversarial snapshot must fail with a
	// clear error before any large allocation, never panic. No real net
	// here comes near either limit.
	maxSnapshotParams = 1 << 20 // parameters per snapshot
	maxSnapshotElems  = 1 << 31 // elements per tensor (8 GiB of f32)
)

var byteOrder = binary.LittleEndian

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, byteOrder, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, byteOrder, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("dnn: corrupt snapshot: name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeTensor(w io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if err := binary.Write(w, byteOrder, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, byteOrder, uint32(d)); err != nil {
			return err
		}
	}
	data := t.Data()
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		byteOrder.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readTensorInto(r io.Reader, dst *tensor.Tensor) error {
	var rank uint32
	if err := binary.Read(r, byteOrder, &rank); err != nil {
		return err
	}
	if rank > 16 {
		return fmt.Errorf("dnn: corrupt snapshot: rank %d", rank)
	}
	// Accumulate in int64 and bound after every dimension: rank ≤ 16 keeps
	// the running product ≤ maxSnapshotElems × (2³²−1), which cannot
	// overflow int64, and a hostile dims field cannot reach make().
	count := int64(1)
	shape := make([]int, rank)
	for i := range shape {
		var d uint32
		if err := binary.Read(r, byteOrder, &d); err != nil {
			return err
		}
		shape[i] = int(d)
		count *= int64(d)
		if count > maxSnapshotElems {
			return fmt.Errorf("dnn: corrupt snapshot: shape %v exceeds %d elements", shape[:i+1], maxSnapshotElems)
		}
	}
	if int(count) != dst.Len() {
		return fmt.Errorf("dnn: snapshot shape %v (%d elems) does not match blob %v (%d elems)",
			shape, count, dst.Shape(), dst.Len())
	}
	buf := make([]byte, 4*count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	data := dst.Data()
	for i := range data {
		data[i] = math.Float32frombits(byteOrder.Uint32(buf[i*4:]))
	}
	return nil
}

// SaveWeights serializes every learnable parameter of the net. A net built
// timing-only, whose weights were never filled or loaded, is refused.
func (n *Net) SaveWeights(w io.Writer) error {
	if err := checkFilled("net "+n.name, n.Params()); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, weightsMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, byteOrder, uint32(formatVer)); err != nil {
		return err
	}
	params := n.Params()
	if err := binary.Write(bw, byteOrder, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := writeTensor(bw, p.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWeights restores parameters saved by SaveWeights. Parameters are
// matched by name; every stored parameter must exist with the same element
// count (shapes are informative). A loaded parameter counts as filled, even
// on a net built timing-only.
func (n *Net) LoadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	if err := expectMagic(br, weightsMagic); err != nil {
		return err
	}
	var ver, count uint32
	if err := binary.Read(br, byteOrder, &ver); err != nil {
		return err
	}
	if ver != formatVer {
		return fmt.Errorf("dnn: unsupported snapshot version %d (this build reads version %d)", ver, formatVer)
	}
	if err := binary.Read(br, byteOrder, &count); err != nil {
		return err
	}
	if count > maxSnapshotParams {
		return fmt.Errorf("dnn: corrupt snapshot: parameter count %d", count)
	}
	byName := map[string]*Blob{}
	for _, p := range n.Params() {
		byName[p.Name] = p
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		p := byName[name]
		if p == nil {
			return fmt.Errorf("dnn: snapshot parameter %q not present in net %s", name, n.name)
		}
		if err := readTensorInto(br, p.Data); err != nil {
			return fmt.Errorf("dnn: loading %q: %w", name, err)
		}
		p.unset = false
	}
	return nil
}

func expectMagic(r io.Reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if string(buf) != magic {
		return fmt.Errorf("dnn: bad snapshot magic %q, want %q", buf, magic)
	}
	return nil
}

// SaveWeightsFile writes a weights snapshot to a file, atomically: a crash
// mid-write leaves either the previous snapshot or none, never a truncated
// unservable one.
func (n *Net) SaveWeightsFile(path string) error {
	return WriteFileAtomic(path, n.SaveWeights)
}

// LoadWeightsFile reads a weights snapshot from a file.
func (n *Net) LoadWeightsFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return n.LoadWeights(f)
}

// Snapshot serializes the full training state: weights, momentum history
// and the iteration counter (Caffe's .solverstate).
func (s *Solver) Snapshot(w io.Writer) error {
	if err := s.net.SaveWeights(w); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, solverMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, byteOrder, uint32(s.iter)); err != nil {
		return err
	}
	params := s.net.Params()
	if err := binary.Write(bw, byteOrder, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		hist := s.history[p]
		if hist == nil {
			hist = tensor.New(p.Shape()...)
		}
		if err := writeTensor(bw, hist); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Restore loads training state saved by Snapshot.
func (s *Solver) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	if err := s.net.LoadWeights(br); err != nil {
		return err
	}
	if err := expectMagic(br, solverMagic); err != nil {
		return err
	}
	var iter, count uint32
	if err := binary.Read(br, byteOrder, &iter); err != nil {
		return err
	}
	if err := binary.Read(br, byteOrder, &count); err != nil {
		return err
	}
	if count > maxSnapshotParams {
		return fmt.Errorf("dnn: corrupt solver state: parameter count %d", count)
	}
	byName := map[string]*Blob{}
	for _, p := range s.net.Params() {
		byName[p.Name] = p
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		p := byName[name]
		if p == nil {
			return fmt.Errorf("dnn: solver state for unknown parameter %q", name)
		}
		hist := s.history[p]
		if hist == nil {
			hist = tensor.New(p.Shape()...)
			s.history[p] = hist
		}
		if err := readTensorInto(br, hist); err != nil {
			return fmt.Errorf("dnn: restoring history of %q: %w", name, err)
		}
	}
	s.iter = int(iter)
	return nil
}
