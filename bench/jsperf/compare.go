package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// readSet loads the end-to-end runs of a result-set file. A #label
// suffix keeps only the runs appended with -set label.
func readSet(arg string) ([]record, error) {
	path, label, _ := strings.Cut(arg, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var runs []record
	for _, r := range rs.Runs {
		if !r.Trace && (label == "" || r.Set == label) {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end runs", arg)
	}
	return runs, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the values of one metric on one workload. The new
// median may be worse than the old by at most bound, as a share of the
// old median. When the old runs' own quartile spread exceeds the bound
// the row cannot be resolved either way, unless every new run reads
// better than every old run.
func judge(m metricSpec, old, cur []float64) string {
	sign := 1.0 // worsening is growth
	if m.Better == "higher" {
		sign = -1
	}
	q1, oldMed, q3 := quartiles(old)
	if oldMed == 0 {
		return verdictUnresolved
	}
	if (q3-q1)/oldMed > m.Bound {
		worstNew, bestOld := sign*cur[0], sign*old[0]
		for _, v := range cur {
			worstNew = max(worstNew, sign*v)
		}
		for _, v := range old {
			bestOld = min(bestOld, sign*v)
		}
		if worstNew < bestOld {
			return verdictOK
		}
		return verdictUnresolved
	}
	if sign*(median(cur)-oldMed)/oldMed > m.Bound {
		return verdictWorse
	}
	return verdictOK
}

// values collects one metric of one workload over runs, and how many
// ops failed in them.
func values(runs []record, workload, name string) (vs []float64, failed int) {
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		failed += r.Failed
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs, failed
}

// errWorse is returned when any row's verdict is worse.
var errWorse = fmt.Errorf("at least one metric is worse than its bound allows")

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(w io.Writer, root, oldArg, newArg string) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	old, err := readSet(oldArg)
	if err != nil {
		return err
	}
	cur, err := readSet(newArg)
	if err != nil {
		return err
	}
	return compareSets(w, spec, old, cur)
}

func compareSets(w io.Writer, spec benchSpec, old, cur []record) error {
	fmt.Fprintf(w, "%-12s %-16s %-6s %5s | %3s %10s %10s %10s | %3s %10s %10s %10s | %7s %7s  %s\n",
		"workload", "metric", "unit", "bound", "n", "old q1", "old med", "old q3", "n", "new q1", "new med", "new q3", "change", "spread", "verdict")
	worse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ov, of := values(old, wl.Name, m.Name)
			nv, nf := values(cur, wl.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, omed, oq3 := quartiles(ov)
			nq1, nmed, nq3 := quartiles(nv)
			v := judge(m, ov, nv)
			if nf > of {
				v = verdictWorse + " (more failed ops)"
			}
			worse = worse || strings.HasPrefix(v, verdictWorse)
			fmt.Fprintf(w, "%-12s %-16s %-6s %4.0f%% | %3d %10.4f %10.4f %10.4f | %3d %10.4f %10.4f %10.4f | %+6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, m.Unit, m.Bound*100, len(ov), oq1, omed, oq3, len(nv), nq1, nmed, nq3,
				(nmed-omed)/omed*100, (oq3-oq1)/omed*100, v)
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
