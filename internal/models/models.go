// Package models builds the four networks the paper evaluates (Section 4.1,
// Tables 4 and 5): the CIFAR10 quick net, the Siamese MNIST net, CaffeNet
// (the AlexNet variant), and a GoogLeNet slice containing the six
// convolution units of Table 5. Layer geometry follows Table 5 exactly;
// LayerTable reproduces the table as data so tests can assert the match.
package models

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/dnn"
)

// LayerRow is one row of the paper's Table 5.
type LayerRow struct {
	Net   string
	Layer string
	N     int // batch size
	Ci    int // input channels
	HW    int // input height = width
	Co    int // output channels
	F     int // filter height = width
	S     int // stride
	P     int // pad
}

// LayerTable is the paper's Table 5 ("Layers of DNNs used in this paper").
var LayerTable = []LayerRow{
	{Net: "CIFAR10", Layer: "conv1", N: 100, Ci: 3, HW: 32, Co: 32, F: 5, S: 1, P: 2},
	{Net: "CIFAR10", Layer: "conv2", N: 100, Ci: 32, HW: 16, Co: 32, F: 5, S: 1, P: 2},
	{Net: "CIFAR10", Layer: "conv3", N: 100, Ci: 32, HW: 8, Co: 64, F: 5, S: 1, P: 2},
	{Net: "Siamese", Layer: "conv1", N: 64, Ci: 1, HW: 28, Co: 20, F: 5, S: 1, P: 0},
	{Net: "Siamese", Layer: "conv2", N: 64, Ci: 20, HW: 12, Co: 50, F: 5, S: 1, P: 0},
	{Net: "Siamese", Layer: "conv1_p", N: 64, Ci: 1, HW: 28, Co: 20, F: 5, S: 1, P: 0},
	{Net: "Siamese", Layer: "conv2_p", N: 64, Ci: 20, HW: 12, Co: 50, F: 5, S: 1, P: 0},
	{Net: "CaffeNet", Layer: "conv1", N: 256, Ci: 3, HW: 227, Co: 96, F: 11, S: 4, P: 0},
	{Net: "CaffeNet", Layer: "conv2", N: 256, Ci: 96, HW: 27, Co: 256, F: 5, S: 1, P: 2},
	{Net: "CaffeNet", Layer: "conv3", N: 256, Ci: 256, HW: 13, Co: 384, F: 3, S: 1, P: 1},
	{Net: "CaffeNet", Layer: "conv4", N: 256, Ci: 384, HW: 13, Co: 384, F: 3, S: 1, P: 1},
	{Net: "CaffeNet", Layer: "conv5", N: 256, Ci: 384, HW: 13, Co: 256, F: 3, S: 1, P: 1},
	{Net: "GoogLeNet", Layer: "conv_1", N: 32, Ci: 160, HW: 7, Co: 320, F: 3, S: 1, P: 1},
	{Net: "GoogLeNet", Layer: "conv_2", N: 32, Ci: 832, HW: 7, Co: 32, F: 1, S: 1, P: 0},
	{Net: "GoogLeNet", Layer: "conv_3", N: 32, Ci: 832, HW: 7, Co: 384, F: 1, S: 1, P: 0},
	{Net: "GoogLeNet", Layer: "conv_4", N: 32, Ci: 192, HW: 7, Co: 384, F: 3, S: 1, P: 1},
	{Net: "GoogLeNet", Layer: "conv_5", N: 32, Ci: 832, HW: 7, Co: 192, F: 1, S: 1, P: 0},
	{Net: "GoogLeNet", Layer: "conv_6", N: 32, Ci: 832, HW: 7, Co: 48, F: 1, S: 1, P: 0},
}

// Rows returns the Table 5 rows belonging to one net.
func Rows(net string) []LayerRow {
	var out []LayerRow
	for _, r := range LayerTable {
		if r.Net == net {
			out = append(out, r)
		}
	}
	return out
}

// Names lists the four workload names in paper order.
var Names = []string{"CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"}

// Feeder fills a net's input blobs with the next mini-batch.
type Feeder func(net *dnn.Net) error

// Workload couples a network builder with its input description and paper
// defaults.
type Workload struct {
	Name         string
	DefaultBatch int
	Dataset      string // Table 4 name, "" for synthetic activations

	build func(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error)
	input inputSpec
}

// inputSpec describes a workload's input once; the inline Feeder and the
// asynchronous InputPipe are both built from it, which is what keeps their
// batch streams bit-identical.
type inputSpec struct {
	// blobs names the net's input blobs: one per data plane, then the label
	// blob. Two planes are Siamese pairs (left, right, similarity).
	blobs []string
	// crop is the sample side cut from the dataset's images, 0 for native
	// resolution.
	crop int
	// gen, for a workload without a dataset, builds the serial generator
	// (see data.NewSerialPrefetcher); a sample's plane has plane elements.
	gen   func(seed int64) func(planes [][]float32, labels []float32)
	plane int
}

// Workloads maps names to workload definitions.
var Workloads = map[string]*Workload{
	"CIFAR10": {
		Name: "CIFAR10", DefaultBatch: 100, Dataset: "CIFAR-10", build: BuildCIFAR10,
		input: inputSpec{blobs: []string{"data", "label"}},
	},
	"Siamese": {
		Name: "Siamese", DefaultBatch: 64, Dataset: "MNIST", build: BuildSiamese,
		input: inputSpec{blobs: []string{"data", "data_p", "sim"}},
	},
	"CaffeNet": {
		Name: "CaffeNet", DefaultBatch: 256, Dataset: "ImageNet", build: BuildCaffeNet,
		input: inputSpec{blobs: []string{"data", "label"}, crop: 227},
	},
	"GoogLeNet": {
		Name: "GoogLeNet", DefaultBatch: 32, Dataset: "", build: BuildGoogLeNetSlice,
		input: inputSpec{blobs: []string{"data", "label"}, gen: inceptionActivations, plane: 832 * 7 * 7},
	},
}

// batchOr is the one place "batch ≤ 0 selects the paper default" is decided.
func (w *Workload) batchOr(batch int) int {
	if batch <= 0 {
		return w.DefaultBatch
	}
	return batch
}

// Build constructs the workload's net; batch ≤ 0 selects the paper default
// (the Build* functions themselves take a positive batch).
func (w *Workload) Build(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error) {
	return w.build(ctx, w.batchOr(batch), seed)
}

// Get returns the named workload or an error.
func Get(name string) (*Workload, error) {
	w, ok := Workloads[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown workload %q (have %v)", name, Names)
	}
	return w, nil
}

// BuildCIFAR10 is Caffe's cifar10_quick: three 5×5 conv/pool stages, two
// inner products, softmax loss.
func BuildCIFAR10(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error) {
	c1 := dnn.Conv(32, 5, 1, 2)
	c2 := dnn.Conv(32, 5, 1, 2)
	c3 := dnn.Conv(64, 5, 1, 2)
	c1.Seed, c2.Seed, c3.Seed = seed, seed, seed
	ip1 := dnn.IP(64)
	ip2 := dnn.IP(10)
	ip1.Seed, ip2.Seed = seed, seed
	return dnn.NewNet("CIFAR10").
		Input("data", batch, 3, 32, 32).
		Input("label", batch).
		Add(dnn.NewConv("conv1", c1), []string{"data"}, []string{"c1"}).
		Add(dnn.NewPool("pool1", dnn.Pool(dnn.MaxPool, 3, 2)), []string{"c1"}, []string{"p1"}).
		Add(dnn.NewReLU("relu1"), []string{"p1"}, []string{"r1"}).
		Add(dnn.NewConv("conv2", c2), []string{"r1"}, []string{"c2"}).
		Add(dnn.NewReLU("relu2"), []string{"c2"}, []string{"r2"}).
		Add(dnn.NewPool("pool2", dnn.Pool(dnn.AvePool, 3, 2)), []string{"r2"}, []string{"p2"}).
		Add(dnn.NewConv("conv3", c3), []string{"p2"}, []string{"c3"}).
		Add(dnn.NewReLU("relu3"), []string{"c3"}, []string{"r3"}).
		Add(dnn.NewPool("pool3", dnn.Pool(dnn.AvePool, 3, 2)), []string{"r3"}, []string{"p3"}).
		Add(dnn.NewIP("ip1", ip1), []string{"p3"}, []string{"f1"}).
		Add(dnn.NewIP("ip2", ip2), []string{"f1"}, []string{"scores"}).
		Add(dnn.NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
}

// BuildSiamese is Caffe's mnist_siamese: twin LeNet feature towers with
// shared parameters and a contrastive loss on 2-D embeddings; batch counts
// pairs.
func BuildSiamese(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error) {
	mk := func(suffix string) (dnn.ConvConfig, dnn.ConvConfig, dnn.IPConfig, dnn.IPConfig, dnn.IPConfig) {
		c1 := dnn.Conv(20, 5, 1, 0)
		c2 := dnn.Conv(50, 5, 1, 0)
		c1.Seed, c2.Seed = seed, seed
		i1 := dnn.IP(500)
		i2 := dnn.IP(10)
		i3 := dnn.IP(2)
		i1.Seed, i2.Seed, i3.Seed = seed, seed, seed
		_ = suffix
		return c1, c2, i1, i2, i3
	}
	c1a, c2a, i1a, i2a, i3a := mk("")
	c1b, c2b, i1b, i2b, i3b := mk("_p")

	b := dnn.NewNet("Siamese").
		Input("data", batch, 1, 28, 28).
		Input("data_p", batch, 1, 28, 28).
		Input("sim", batch)

	tower := func(c1cfg, c2cfg dnn.ConvConfig, i1cfg, i2cfg, i3cfg dnn.IPConfig, in, suffix string) string {
		b.Add(dnn.NewConv("conv1"+suffix, c1cfg), []string{in}, []string{"c1" + suffix}).
			Add(dnn.NewPool("pool1"+suffix, dnn.Pool(dnn.MaxPool, 2, 2)), []string{"c1" + suffix}, []string{"p1" + suffix}).
			Add(dnn.NewConv("conv2"+suffix, c2cfg), []string{"p1" + suffix}, []string{"c2" + suffix}).
			Add(dnn.NewPool("pool2"+suffix, dnn.Pool(dnn.MaxPool, 2, 2)), []string{"c2" + suffix}, []string{"p2" + suffix}).
			Add(dnn.NewIP("ip1"+suffix, i1cfg), []string{"p2" + suffix}, []string{"f1" + suffix}).
			Add(dnn.NewReLU("relu1"+suffix), []string{"f1" + suffix}, []string{"r1" + suffix}).
			Add(dnn.NewIP("ip2"+suffix, i2cfg), []string{"r1" + suffix}, []string{"f2" + suffix}).
			Add(dnn.NewIP("feat"+suffix, i3cfg), []string{"f2" + suffix}, []string{"feat" + suffix})
		return "feat" + suffix
	}
	fa := tower(c1a, c2a, i1a, i2a, i3a, "data", "")
	fb := tower(c1b, c2b, i1b, i2b, i3b, "data_p", "_p")
	b.Add(dnn.NewContrastiveLoss("loss", 1), []string{fa, fb, "sim"}, []string{"loss"})

	net, err := b.Build(ctx)
	if err != nil {
		return nil, err
	}
	// Caffe shares the twins' parameters by name.
	for _, pair := range [][2]string{
		{"conv1", "conv1_p"}, {"conv2", "conv2_p"},
		{"ip1", "ip1_p"}, {"ip2", "ip2_p"}, {"feat", "feat_p"},
	} {
		if err := net.ShareParams(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// BuildCaffeNet is the AlexNet variant of Fig. 1: five convolutions with
// LRN and max pooling, then fc6/fc7/fc8 with dropout. Groups are ignored
// (Table 5 lists full input depths, so the paper's kernel workload does
// too).
func BuildCaffeNet(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error) {
	mkConv := func(co, k, s, p int) dnn.ConvConfig {
		c := dnn.Conv(co, k, s, p)
		c.Seed = seed
		return c
	}
	mkIP := func(n int) dnn.IPConfig {
		c := dnn.IP(n)
		c.Seed = seed
		return c
	}
	return dnn.NewNet("CaffeNet").
		Input("data", batch, 3, 227, 227).
		Input("label", batch).
		Add(dnn.NewConv("conv1", mkConv(96, 11, 4, 0)), []string{"data"}, []string{"c1"}).
		Add(dnn.NewReLU("relu1"), []string{"c1"}, []string{"r1"}).
		Add(dnn.NewPool("pool1", dnn.Pool(dnn.MaxPool, 3, 2)), []string{"r1"}, []string{"p1"}).
		Add(dnn.NewLRN("norm1", dnn.DefaultLRN()), []string{"p1"}, []string{"n1"}).
		Add(dnn.NewConv("conv2", mkConv(256, 5, 1, 2)), []string{"n1"}, []string{"c2"}).
		Add(dnn.NewReLU("relu2"), []string{"c2"}, []string{"r2"}).
		Add(dnn.NewPool("pool2", dnn.Pool(dnn.MaxPool, 3, 2)), []string{"r2"}, []string{"p2"}).
		Add(dnn.NewLRN("norm2", dnn.DefaultLRN()), []string{"p2"}, []string{"n2"}).
		Add(dnn.NewConv("conv3", mkConv(384, 3, 1, 1)), []string{"n2"}, []string{"c3"}).
		Add(dnn.NewReLU("relu3"), []string{"c3"}, []string{"r3"}).
		Add(dnn.NewConv("conv4", mkConv(384, 3, 1, 1)), []string{"r3"}, []string{"c4"}).
		Add(dnn.NewReLU("relu4"), []string{"c4"}, []string{"r4"}).
		Add(dnn.NewConv("conv5", mkConv(256, 3, 1, 1)), []string{"r4"}, []string{"c5"}).
		Add(dnn.NewReLU("relu5"), []string{"c5"}, []string{"r5"}).
		Add(dnn.NewPool("pool5", dnn.Pool(dnn.MaxPool, 3, 2)), []string{"r5"}, []string{"p5"}).
		Add(dnn.NewIP("fc6", mkIP(4096)), []string{"p5"}, []string{"f6"}).
		Add(dnn.NewReLU("relu6"), []string{"f6"}, []string{"r6"}).
		Add(dnn.NewDropout("drop6", 0.5), []string{"r6"}, []string{"d6"}).
		Add(dnn.NewIP("fc7", mkIP(4096)), []string{"d6"}, []string{"f7"}).
		Add(dnn.NewReLU("relu7"), []string{"f7"}, []string{"r7"}).
		Add(dnn.NewDropout("drop7", 0.5), []string{"r7"}, []string{"d7"}).
		Add(dnn.NewIP("fc8", mkIP(1000)), []string{"d7"}, []string{"scores"}).
		Add(dnn.NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
}

// BuildGoogLeNetSlice reproduces the part of GoogLeNet the paper measures:
// the six convolution units of Table 5, which belong to the inception_5a/5b
// modules (832-channel 7×7 inputs). The slice wires them as inception-style
// branches from a shared 832×7×7 activation: conv_2/conv_3/conv_5/conv_6
// read the input directly, conv_4 follows the conv_5 reduction, and conv_1
// follows an 832→160 1×1 reduction (the 5a 3×3-reduce, added so conv_1 sees
// its Table 5 input depth). Branch outputs concat into a classifier head.
func BuildGoogLeNetSlice(ctx *dnn.Context, batch int, seed int64) (*dnn.Net, error) {
	mk := func(co, k, p int) dnn.ConvConfig {
		c := dnn.Conv(co, k, 1, p)
		c.Seed = seed
		return c
	}
	ipc := dnn.IP(1000)
	ipc.Seed = seed
	return dnn.NewNet("GoogLeNet").
		Input("data", batch, 832, 7, 7).
		Input("label", batch).
		// 5a 3×3 path: 832 → 160 (reduce) → 320.
		Add(dnn.NewConv("conv_r", mk(160, 1, 0)), []string{"data"}, []string{"xr"}).
		Add(dnn.NewReLU("relu_r"), []string{"xr"}, []string{"ar"}).
		Add(dnn.NewConv("conv_1", mk(320, 3, 1)), []string{"ar"}, []string{"x1"}).
		Add(dnn.NewReLU("relu_1"), []string{"x1"}, []string{"a1"}).
		// 5a 5×5 reduce: 832 → 32.
		Add(dnn.NewConv("conv_2", mk(32, 1, 0)), []string{"data"}, []string{"x2"}).
		Add(dnn.NewReLU("relu_2"), []string{"x2"}, []string{"a2"}).
		// 5b 1×1: 832 → 384.
		Add(dnn.NewConv("conv_3", mk(384, 1, 0)), []string{"data"}, []string{"x3"}).
		Add(dnn.NewReLU("relu_3"), []string{"x3"}, []string{"a3"}).
		// 5b 3×3 path: 832 → 192 (reduce) → 384.
		Add(dnn.NewConv("conv_5", mk(192, 1, 0)), []string{"data"}, []string{"x5"}).
		Add(dnn.NewReLU("relu_5"), []string{"x5"}, []string{"a5"}).
		Add(dnn.NewConv("conv_4", mk(384, 3, 1)), []string{"a5"}, []string{"x4"}).
		Add(dnn.NewReLU("relu_4"), []string{"x4"}, []string{"a4"}).
		// 5b 5×5 reduce: 832 → 48.
		Add(dnn.NewConv("conv_6", mk(48, 1, 0)), []string{"data"}, []string{"x6"}).
		Add(dnn.NewReLU("relu_6"), []string{"x6"}, []string{"a6"}).
		Add(dnn.NewConcat("concat"), []string{"a1", "a2", "a3", "a4", "a5", "a6"}, []string{"cat"}).
		Add(dnn.NewPool("gap", dnn.Pool(dnn.AvePool, 7, 7)), []string{"cat"}, []string{"pooled"}).
		Add(dnn.NewIP("classifier", ipc), []string{"pooled"}, []string{"scores"}).
		Add(dnn.NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
}

// open builds the workload's batch stream for one (batch, seed): the dataset
// is synthesized from seed and its iterator shuffles from seed+1, the
// generator draws from seed. A caller uses one of next (draw a batch inline)
// and prefetch (hand the same iterator to an asynchronous pipeline); size is
// the element count of one sample plane.
func (w *Workload) open(batch int, seed int64) (size int, next func(planes [][]float32, labels []float32), prefetch func(PipeConfig) *data.Prefetcher) {
	in := w.input
	if in.gen != nil {
		gen := in.gen(seed)
		return in.plane, gen, func(o PipeConfig) *data.Prefetcher {
			return data.NewSerialPrefetcher([]int{batch * in.plane}, batch, gen, o)
		}
	}
	spec, _ := data.SpecByName(w.Dataset)
	ds := data.Synthetic(spec, seed)
	if len(in.blobs) == 3 {
		pairs := data.NewPairIterator(ds, data.TrainSplit, batch, seed+1)
		return ds.SampleSize(),
			func(planes [][]float32, sim []float32) { pairs.Next(planes[0], planes[1], sim) },
			func(o PipeConfig) *data.Prefetcher { return data.NewPairPrefetcher(pairs, o) }
	}
	h, wd := ds.Height, ds.Width
	if in.crop > 0 {
		h, wd = in.crop, in.crop
	}
	it := data.NewCroppedIterator(ds, data.TrainSplit, batch, h, wd, seed+1)
	return ds.Channels * h * wd,
		func(planes [][]float32, labels []float32) { it.Next(planes[0], labels) },
		func(o PipeConfig) *data.Prefetcher { return data.NewPrefetcher(it, o) }
}

// deliver copies one batch into the net's input blobs.
func (in inputSpec) deliver(net *dnn.Net, planes [][]float32, labels []float32) error {
	for i, plane := range planes {
		if err := net.SetInputData(in.blobs[i], plane); err != nil {
			return err
		}
	}
	return net.SetInputData(in.blobs[len(planes)], labels)
}

// NewFeeder builds the workload's inline feeder — the reference stream the
// input pipeline is compared against; batch ≤ 0 selects the paper default.
func (w *Workload) NewFeeder(batch int, seed int64) Feeder {
	batch = w.batchOr(batch)
	size, next, _ := w.open(batch, seed)
	planes := make([][]float32, len(w.input.blobs)-1)
	for i := range planes {
		planes[i] = make([]float32, batch*size)
	}
	labels := make([]float32, batch)
	return func(net *dnn.Net) error {
		next(planes, labels)
		return w.input.deliver(net, planes, labels)
	}
}

// inceptionActivations generates the GoogLeNet slice's input: an inception
// activation, not a dataset image — positive-skewed noise approximates
// post-ReLU statistics. It draws from one shared RNG with no per-sample
// decomposition, so the input pipeline runs it as a serial source:
// generation still overlaps compute, draws stay in exact feeder order.
func inceptionActivations(seed int64) func(planes [][]float32, labels []float32) {
	rng := rand.New(rand.NewSource(seed))
	return func(planes [][]float32, labels []float32) {
		buf := planes[0]
		for i := range buf {
			v := float32(rng.NormFloat64())
			if v < 0 {
				v = 0
			}
			buf[i] = v
		}
		for i := range labels {
			labels[i] = float32(rng.Intn(1000))
		}
	}
}
