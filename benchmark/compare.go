package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// relSpread is the repetition spread of a metric as a share of its median.
func relSpread(m metricRecord) float64 {
	if m.Median == 0 {
		return 0
	}
	s := (m.Max - m.Min) / m.Median
	if s < 0 {
		s = -s
	}
	return s
}

// verdict applies one metric's bound to the medians of records A (the
// baseline) and B. worse is B's change in the losing direction as a share
// of A.
func verdict(m *metricDef, bound float64, a, b metricRecord) (string, float64) {
	worse := 0.0
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if m.Better == "higher" {
			worse = -worse
		}
		if a.Median < 0 {
			worse = -worse
		}
	} else if b.Median != 0 {
		worse = 1
		if (m.Better == "higher") == (b.Median > 0) {
			worse = -1
		}
	}
	switch {
	case bound == 0:
		return "info", worse
	case bound == exactBound:
		if worse > 0 {
			return "REGRESSION", worse
		}
		if worse < 0 {
			return "improved", worse
		}
		return "ok", worse
	case relSpread(a) > bound || relSpread(b) > bound:
		// The repetitions disagree by more than the bound: the medians
		// cannot be told apart at this resolution.
		return "unresolved", worse
	case worse > bound:
		return "REGRESSION", worse
	}
	return "ok", worse
}

// sameConditions names what differs between the conditions two records
// were taken under, "" when they can be compared: the inputs (seed, window,
// size) and the cores and ISA the wall numbers had. The commit and the Go
// version are what a comparison is for.
func sameConditions(a, b envelope) string {
	type conditions struct {
		Seed               int64
		Seconds            float64
		Quick              bool
		NumCPU, GOMAXPROCS int
		ISA                string
	}
	of := func(e envelope) conditions {
		return conditions{e.Seed, e.Seconds, e.Quick, e.NumCPU, e.GOMAXPROCS, e.ISA}
	}
	if of(a) == of(b) {
		return ""
	}
	return fmt.Sprintf("A has %+v, B has %+v", of(a), of(b))
}

// compareFiles reads two records and compares them.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n", pathA, pathB)
	return compareRecords(w, a, b)
}

// compareRecords prints one row per workload × metric and reports whether B
// regressed against A: a bounded metric worse by more than its bound, an
// exact one worse at all, a workload that stopped being correct, or a
// workload or bounded metric of A that B no longer has. Records taken under
// different conditions are refused.
func compareRecords(w io.Writer, a, b *record) (bool, error) {
	for _, e := range []envelope{a.Envelope, b.Envelope} {
		fmt.Fprintf(w, "commit %s, %s, GOMAXPROCS %d of %d, ISA %s, seed %d, %d rep(s) of %gs\n",
			e.Commit, e.Go, e.GOMAXPROCS, e.NumCPU, e.ISA, e.Seed, e.Reps, e.Seconds)
	}
	if diff := sameConditions(a.Envelope, b.Envelope); diff != "" {
		return false, fmt.Errorf("the records were taken under different conditions: %s", diff)
	}
	regressed, unresolved := false, 0
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-20s REGRESSION: missing from B\n", name)
			regressed = true
			continue
		}
		if wa.Correct && !wb.Correct {
			fmt.Fprintf(w, "%-20s REGRESSION: correct in A, not in B\n", name)
			regressed = true
		}
		for i := range metrics {
			m := &metrics[i]
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			bnd := m.boundOn(name)
			if okA && !okB && bnd != 0 {
				fmt.Fprintf(w, "%-20s %-42s REGRESSION: missing from B\n", name, m.Name)
				regressed = true
			}
			if !okA || !okB {
				continue
			}
			v, worse := verdict(m, bnd, ma, mb)
			bound := "-"
			switch {
			case bnd == exactBound:
				bound = "exact"
			case bnd > 0:
				bound = fmt.Sprintf("%g%%", 100*bnd)
			}
			fmt.Fprintf(w, "%-20s %-42s %-8s %14.6g -> %-14.6g %+8.2f%% worse  bound %-6s spread A %.2f%% B %.2f%%  %s\n",
				name, m.Name, m.Clock, ma.Median, mb.Median, 100*worse, bound, 100*relSpread(ma), 100*relSpread(mb), v)
			switch v {
			case "REGRESSION":
				regressed = true
			case "unresolved":
				unresolved++
			}
		}
	}
	fmt.Fprintf(w, "regressed=%v unresolved=%d\n", regressed, unresolved)
	return regressed, nil
}

func sortedKeys(m map[string]*workloadRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
