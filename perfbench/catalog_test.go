package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the program and BENCHMARK.json in
// step: the same workloads, and the same metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadOrder)
	}
	for _, c := range []struct {
		what    string
		listed  []struct{ Name, Unit string }
		catalog map[string]string
	}{{"end_to_end", spec.EndToEnd, e2eUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		got := map[string]string{}
		for _, m := range c.listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.catalog) {
			t.Errorf("BENCHMARK.json %s %v, program catalog %v", c.what, got, c.catalog)
		}
	}
}
