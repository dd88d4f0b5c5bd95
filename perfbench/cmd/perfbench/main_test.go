package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON: the names and units the driver prints are
// the ones BENCHMARK.json declares, in both trace modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the driver prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if p := printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the driver prints %s (%s)", kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
