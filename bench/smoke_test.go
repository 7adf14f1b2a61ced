// Package bench_test keeps the benchmark honest: it builds the programs
// under test and the benchmark itself and checks that every workload
// runs and prints exactly the metrics BENCHMARK.json names.
package bench_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three programs and runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 4 || len(sp.EndToEnd) != 4 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 4 and 4", len(sp.Workloads), len(sp.EndToEnd))
	}

	dir := t.TempDir()
	build := func(wd, out string, pkgs ...string) {
		cmd := exec.Command("go", append([]string{"build", "-o", out}, pkgs...)...)
		cmd.Dir = wd
		if outp, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", pkgs, err, outp)
		}
	}
	build("..", dir+string(filepath.Separator), "repro/cmd/jsinfer", "repro/cmd/jsinferd")
	jsperf := filepath.Join(dir, "jsperf")
	build(".", jsperf, "./jsperf")

	// Nothing here asserts a timing, so the runs may share the CPUs.
	run := func(t *testing.T, want []metricSpec, out string, args ...string) {
		t.Parallel()
		cmd := exec.Command(jsperf, append([]string{"-bin", dir, "-dir", out, "-seed", "5"}, args...)...)
		outp, err := cmd.Output()
		if err != nil {
			t.Fatalf("jsperf %v: %v\n%s", args, err, outp)
		}
		lines := strings.Split(strings.TrimSpace(string(outp)), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok || got.Value == nil:
				t.Errorf("metric %s is not printed", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			run(t, sp.EndToEnd, filepath.Join(dir, "e2e"), "-workload", w.Name, "-trace", "0", "-ops", "2")
		})
		t.Run(w.Name+"/trace", func(t *testing.T) {
			out := filepath.Join(dir, "trace")
			run(t, sp.PerLayer, out, "-workload", w.Name, "-trace", "1", "-ops", "2", "-reps", "2")
			if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
