package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// definition is the part of BENCHMARK.json the steadiness report reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one child run's result line plus its raw twins.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	raw       map[string]float64
}

// steadiness runs each workload (or only the named one) n times with
// seeds first..first+n-1, each run a process of its own, and prints the
// spread of every end-to-end metric against its bound.
func steadiness(config, only string, n, seconds int, first uint64) error {
	data, err := os.ReadFile(config)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", config, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range def.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var runs []runOutput
		for seed := first; seed < first+uint64(n); seed++ {
			out, err := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0").Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			r, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			runs = append(runs, r)
		}
		fmt.Printf("== %s: %d runs of %d s (seeds %d..%d)\n", wl.Name, n, seconds, first, first+uint64(n)-1)
		fmt.Printf("%-22s %12s %12s %12s %12s %12s %9s %9s\n",
			"metric", "median", "q1", "q3", "min", "max", "iqr/med", "/bound")
		for _, m := range def.EndToEnd {
			var xs, raws []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
				if v, ok := r.raw[m.Name]; ok {
					raws = append(raws, v)
				}
			}
			row(m.Name, xs, m.Bound)
			if len(raws) == len(xs) {
				row("  raw "+m.Name, raws, m.Bound)
			}
		}
		failed, attempted, correct := 0, 0, true
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
			correct = correct && r.Correct
		}
		fmt.Printf("correct %v, failed %d of %d attempted steps\n\n", correct, failed, attempted)
	}
	return nil
}

// row prints one metric's spread.
func row(name string, xs []float64, bound float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	q1, med, q3 := quartiles(xs)
	spread := (q3 - q1) / med
	fmt.Printf("%-22s %12.6g %12.6g %12.6g %12.6g %12.6g %8.2f%% %9.3f\n",
		name, med, q1, q3, lo, hi, 100*spread, spread/bound)
}

// parseRun reads a run's raw lines and its final JSON line.
func parseRun(out []byte) (runOutput, error) {
	r := runOutput{raw: map[string]float64{}}
	var lastLine string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "raw" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				r.raw[f[1]] = v
			}
		}
		if strings.TrimSpace(line) != "" {
			lastLine = line
		}
	}
	if err := json.Unmarshal([]byte(lastLine), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}
