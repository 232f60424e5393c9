// Command benchmark is the repository's benchmark: four named workloads
// measured on both of the system's clocks (the simulator's virtual clock
// and the host's wall clock), a correctness oracle that is always on, and
// a traced pass that attributes a step to the layers under internal/.
// README.md in this directory lists every workload, metric and flag.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// processStart is as close to process start as Go code gets; setup_s is
// counted from here.
var processStart = time.Now()

// defaultSeconds is the measured window when -seconds is not given; it is
// also BENCHMARK.json's run_seconds.
const defaultSeconds = 10

const outDir = "benchmark/out"

// fullReps is R, the repetitions of a run of all four workloads.
const fullReps = 3

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all four)")
		seed      = flag.Int64("seed", 1, "seeds every generated input: weights, batches, requests, arrival schedule")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured window of one run, in seconds")
		trace     = flag.Int("trace", 0, "1 adds the traced pass: per-layer metrics and "+outDir+"/trace-<workload>.json")
		quick     = flag.Bool("quick", false, "smoke-test sizes: 2 steps, batch <= 8, 32 requests")
		out       = flag.String("out", "", "also write the full record (envelope, every repetition) to this file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -out records: benchmark -compare A.json B.json")
		regen     = flag.Bool("regen-golden", false, "rewrite benchmark/golden.json from the reference configuration (seeds 0-15)")
		printJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
		child     = flag.String("child", "", "internal: run one pass of one workload in this process and print its result")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs())

	switch {
	case *printJSON:
		data, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two record files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *child != "":
		// A pass never outlives the process that started it: that process
		// holds the other end of stdin, whatever ends it closes the pipe.
		go func() {
			io.Copy(io.Discard, os.Stdin)
			os.Exit(3)
		}()
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Quick: *quick, Mode: *child, Start: processStart, OutDir: outDir}
		if err := runChild(cfg); err != nil {
			fatal(err)
		}
	case *regen:
		if err := regenGolden(*quick); err != nil {
			fatal(err)
		}
	default:
		// All four workloads are measured fullReps times, interleaved; one
		// named workload once (an outside driver repeats it itself).
		names, reps := workloadNames(), fullReps
		if *workload != "" {
			if workloadByName(*workload) == nil {
				fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", ")))
			}
			names, reps = []string{*workload}, 1
		}
		ok, err := drive(names, *seed, *seconds, *trace != 0, reps, *quick, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runChild is one pass of one workload in this process; the result goes to
// stdout as one JSON line.
func runChild(cfg runConfig) error {
	w := workloadByName(cfg.Workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res, err := runPass(w, cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runPass runs one pass and closes its result: failed_share is derived
// from the counts here, for every workload and mode.
func runPass(w *workloadDef, cfg runConfig) (*result, error) {
	res, err := w.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", cfg.Workload, cfg.Mode, err)
	}
	if res.Attempted > 0 {
		res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// spawn re-executes this binary for one pass, so heap, GC state and the
// tensor pack pools of one pass cannot leak into the next and peak RSS is
// the pass's own. It returns the pass's result and its peak RSS in MB.
// The pass is always waited for: an interrupt or a request to terminate
// kills it first, and its stdin is a pipe that closes with this process.
func spawn(workload, mode string, seed int64, seconds float64, quick bool) (*result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", mode, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if quick {
		args = append(args, "-quick")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := exec.CommandContext(ctx, exe, args...)
	if _, err := cmd.StdinPipe(); err != nil { // closed by Run, or by the end of this process
		return nil, 0, err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s pass of %s: %w", mode, workload, err)
	}
	res := &result{}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), res); err != nil {
		return nil, 0, fmt.Errorf("%s pass of %s: unreadable result: %w", mode, workload, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return res, rssMB, nil
}

// runOnce is one repetition of one workload: the measured pass, the
// oracle, and (with trace) the traced pass.
func runOnce(w *workloadDef, seed int64, seconds float64, trace, quick bool) (*result, error) {
	res, rss, err := spawn(w.Name, modeMeasure, seed, seconds, quick)
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = rss

	if res.Hash != "" {
		want, err := referenceHash(w.Name, seed, res.Steps, quick, func() (string, error) {
			ref, _, err := spawn(w.Name, modeReference, seed, seconds, quick)
			if err != nil {
				return "", err
			}
			return ref.Hash, nil
		})
		if err != nil {
			return nil, err
		}
		res.check("param-hash", res.Hash == want, "params hash to %s, the reference configuration gives %s", res.Hash, want)
	}
	if trace {
		// The same window again, so the two passes end on the same params.
		traced, _, err := spawn(w.Name, modeTraced, seed, seconds, quick)
		if err != nil {
			return nil, err
		}
		mergeTraced(res, traced)
	}
	return res, nil
}

// mergeTraced folds the traced pass into the measured one: per-layer
// numbers that only the tracer sees, the tracing overhead, and the proof
// that tracing did not change the program.
func mergeTraced(res, traced *result) {
	for name, v := range traced.Metrics {
		if _, measured := res.Metrics[name]; !measured {
			res.Metrics[name] = v
		}
	}
	if base := res.Metrics["step_wall_ms_p50"]; base > 0 {
		res.Metrics["trace.overhead_pct"] = 100 * (traced.Metrics["step_wall_ms_p50"] - base) / base
	}
	res.TraceFile = traced.TraceFile
	for _, c := range traced.Checks {
		c.Name = "traced:" + c.Name
		res.Checks = append(res.Checks, c)
	}
	res.check("traced-same-hash", traced.Hash == res.Hash, "traced pass hashes to %s, untraced to %s", traced.Hash, res.Hash)
	const k = "simgpu.steady_step_virtual_ms"
	tol := 0.0
	if res.Workload == wlGoogLeNet {
		tol = 0.02 // operator-DAG launch-order jitter
	}
	a, b := res.Metrics[k], traced.Metrics[k]
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	res.check("traced-same-virtual-step", diff <= tol*a, "traced pass steady step %v ms, untraced %v ms", b, a)
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
}

// envelope says where and how a record was taken.
type envelope struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	ISA        string  `json:"isa"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

// metricRecord is one metric of one workload over the repetitions.
type metricRecord struct {
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

type workloadRecord struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Checks    []check                 `json:"failed_checks,omitempty"`
	Metrics   map[string]metricRecord `json:"metrics"`
	TraceFile string                  `json:"trace_file,omitempty"`
}

type record struct {
	Envelope  envelope                   `json:"envelope"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// summarize folds the repetitions of one workload into a record and
// applies the cross-repetition rule: a metric whose bound is exact must be
// equal in every repetition.
func summarize(name string, reps []*result, trace bool) *workloadRecord {
	wr := &workloadRecord{Correct: true, Metrics: map[string]metricRecord{}}
	for _, r := range reps {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.TraceFile = r.TraceFile
		for _, c := range r.Checks {
			if !c.OK {
				wr.Checks = append(wr.Checks, c)
			}
		}
	}
	for _, m := range metrics {
		if !m.appliesTo(name) {
			continue
		}
		var vals []float64
		for _, r := range reps {
			if v, ok := r.Metrics[m.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			if m.Gated || (trace && m.Bound != 0) {
				wr.Checks = append(wr.Checks, check{Name: "metric-emitted:" + m.Name, Detail: "the workload did not report it"})
			}
			continue
		}
		lo, hi := minMax(vals)
		wr.Metrics[m.Name] = metricRecord{Unit: m.Unit, Clock: m.Clock, Median: median(vals), Min: lo, Max: hi, Values: vals}
		if m.boundOn(name) == exactBound && lo != hi {
			wr.Checks = append(wr.Checks, check{Name: "repeats-exactly:" + m.Name,
				Detail: fmt.Sprintf("%v..%v over %d repetitions", lo, hi, len(vals))})
		}
	}
	wr.Correct = len(wr.Checks) == 0 && wr.Failed == 0
	return wr
}

// drive runs the workloads R times, interleaved round-robin (a noisy minute
// on a shared box then lands on every workload, not on one), prints the
// table and the closing JSON line, and reports whether every check passed.
func drive(names []string, seed int64, seconds float64, trace bool, reps int, quick bool, out string) (bool, error) {
	env := envelope{
		Commit: readCommit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		ISA: tensor.ActiveISA().String(), Seed: seed, Reps: reps, Seconds: seconds, Quick: quick,
	}
	fmt.Printf("benchmark: commit %s, %s, NumCPU %d, GOMAXPROCS %d, ISA %s, seed %d, %d repetition(s) of %gs\n",
		env.Commit, env.Go, env.NumCPU, env.GOMAXPROCS, env.ISA, seed, reps, seconds)
	results := map[string][]*result{}
	for rep := 0; rep < reps; rep++ {
		for _, name := range names {
			res, err := runOnce(workloadByName(name), seed, seconds, trace, quick)
			if err != nil {
				return false, err
			}
			results[name] = append(results[name], res)
		}
	}
	rec := record{Envelope: env, Workloads: map[string]*workloadRecord{}}
	allOK := true
	for _, name := range names {
		wr := summarize(name, results[name], trace)
		rec.Workloads[name] = wr
		allOK = allOK && wr.Correct
		printWorkload(os.Stdout, name, wr, env)
	}
	if out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allOK, printClosingLine(os.Stdout, names, rec, trace)
}

func printWorkload(w io.Writer, name string, wr *workloadRecord, env envelope) {
	fmt.Fprintf(w, "\n== %s: %d attempted, %d failed, correct=%v\n", name, wr.Attempted, wr.Failed, wr.Correct)
	for _, c := range wr.Checks {
		fmt.Fprintf(w, "   FAILED %s: %s\n", c.Name, c.Detail)
	}
	for _, m := range metrics {
		mr, ok := wr.Metrics[m.Name]
		if !ok {
			continue
		}
		kind := "e2e  "
		if strings.Contains(m.Name, ".") {
			kind = "layer" // layer metrics are named <package>.<what>
		}
		line := fmt.Sprintf("   %s %-42s %14.6g %-10s", kind, m.Name, mr.Median, m.Unit)
		switch m.Clock {
		case clockWall:
			// A wall number means nothing without the cores it had.
			line += fmt.Sprintf(" wall    spread %.6g..%.6g over %d rep(s), GOMAXPROCS %d of %d CPUs",
				mr.Min, mr.Max, len(mr.Values), env.GOMAXPROCS, env.NumCPU)
		case clockVirtual:
			line += fmt.Sprintf(" virtual spread %.6g..%.6g", mr.Min, mr.Max)
		default:
			line += fmt.Sprintf(" count   spread %.6g..%.6g", mr.Min, mr.Max)
		}
		fmt.Fprintln(w, line)
	}
	if wr.TraceFile != "" {
		fmt.Fprintf(w, "   trace written to %s\n", wr.TraceFile)
	}
}

// printClosingLine prints the last line of standard output: one JSON
// object with correct, attempted, failed and metrics. Untraced, metrics
// are exactly the gated end-to-end metrics; traced, exactly the rest (0
// where a metric does not apply to the workload). With several workloads
// the counts are summed and metric names are prefixed "<workload>/".
func printClosingLine(w io.Writer, names []string, rec record, trace bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, name := range names {
		wr := rec.Workloads[name]
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for _, m := range metrics {
			if m.Gated == trace {
				continue
			}
			line.Metrics[prefix+m.Name] = val{wr.Metrics[m.Name].Median, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%s\n", data)
	return err
}

// readCommit reads HEAD from ./.git without starting a process; a checkout
// that is not a git repository reports "unknown".
func readCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return short(ref)
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return short(strings.TrimSpace(string(data)))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(l); len(f) == 2 && f[1] == ref {
				return short(f[0])
			}
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
