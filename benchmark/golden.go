package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// goldenData holds the param hashes of the reference configuration (same
// launcher, so plan widths match; DAG, pool, fusion and prefetch off;
// blocking all-reduce and no host pool for the trainer) for seeds 0-15 of
// every training workload, written by -regen-golden, after the number of
// steps the default -seconds gives. Every measured run of those seeds and
// that length must reproduce them bit for bit.
//
//go:embed golden.json
var goldenData []byte

// goldenSeeds is how many seeds, from 0 up, -regen-golden covers. A seed
// beyond them costs every run one more process (the reference pass); the
// low seeds are the ones people and scripts reach for.
const goldenSeeds = 16

type goldenFile map[string]map[string]string

const quickSuffix = "@quick"

// goldenKey names one run shape: the hash depends on how many steps were
// trained, and the smoke-test size trains a smaller net.
func goldenKey(workload string, steps int, quick bool) string {
	if quick {
		return workload + quickSuffix
	}
	return fmt.Sprintf("%s@%dsteps", workload, steps)
}

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenData, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// referenceHash returns the hash the measured pass must reproduce: the
// golden one when there is one for the seed and the run's length, otherwise
// whatever runReference — the reference configuration, run now over the same
// steps — reports. An unseen seed is never skipped.
func referenceHash(workload string, seed int64, steps int, quick bool, runReference func() (string, error)) (string, error) {
	g, err := loadGolden()
	if err != nil {
		return "", err
	}
	if h, ok := g[goldenKey(workload, steps, quick)][strconv.FormatInt(seed, 10)]; ok {
		return h, nil
	}
	return runReference()
}

// regenGolden reruns the reference configuration for every training
// workload and golden seed and rewrites benchmark/golden.json (entries of
// the other size, quick or full, are kept).
func regenGolden(quick bool) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for key := range g {
		if strings.HasSuffix(key, quickSuffix) == quick {
			delete(g, key)
		}
	}
	for _, w := range workloads {
		if w.Name == wlSim {
			continue // trains nothing
		}
		for seed := int64(0); seed < goldenSeeds; seed++ {
			ref, _, err := spawn(w.Name, modeReference, seed, defaultSeconds, quick)
			if err != nil {
				return err
			}
			key := goldenKey(w.Name, ref.Steps, quick)
			if g[key] == nil {
				g[key] = map[string]string{}
			}
			g[key][strconv.FormatInt(seed, 10)] = ref.Hash
			fmt.Printf("%s seed %d: %s\n", key, seed, ref.Hash)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden.json"), append(data, '\n'), 0o644)
}
