package main

import "fmt"

// e2eUnits lists every end-to-end metric with its unit.  Every workload
// reports all of them; README.md gives each one's meaning per workload.
var e2eUnits = map[string]string{
	"setup_s":   "s",
	"op_s":      "s",
	"ops_per_s": "1/s",
	"alloc_mb":  "MB",
	"heap_mb":   "MB",
	"virt_ms":   "virt_ms",
}

// layerUnits lists every per-layer metric with its unit.  A workload that
// does not exercise a layer reports its metrics as 0.
var layerUnits = map[string]string{
	"e2e.samples":  "count",
	"e2e.tail_s":   "s",
	"e2e.tail_pct": "%",

	"mg.setup_s":  "s",
	"mg.cycle_ms": "ms",
	"mg.apply_ms": "ms",
	"mg.cycles":   "count",

	"dmda.ghost_ms":        "ms",
	"dmda.ghost_coarse_ms": "ms",
	"dmda.ghost_hand_ms":   "ms",

	"mpi.msgs":             "count",
	"mpi.bytes":            "B",
	"mpi.self_bytes_frac":  "ratio",
	"mpi.fused_sends_frac": "ratio",
	"mpi.virt_pack_s":      "virt_s",
	"mpi.virt_wait_s":      "virt_s",
	"mpi.virt_search_s":    "virt_s",
	"mpi.virt_compute_s":   "virt_s",
	"mpi.agv_ms":           "ms",
	"mpi.a2aw_ms":          "ms",
	"mpi.agv_virt_us":      "virt_us",
	"mpi.a2aw_virt_us":     "virt_us",
	"mpi.world_mb":         "MB",

	"datatype.plan_hits":                    "count",
	"datatype.plan_misses":                  "count",
	"datatype.plan_hit_ratio":               "ratio",
	"datatype.packed_bytes":                 "B",
	"datatype.direct_bytes":                 "B",
	"datatype.scanned_segments":             "count",
	"datatype.search_segments":              "count",
	"datatype.pool_outstanding_delta_bytes": "B",

	"transport.send_calls":    "count",
	"transport.send_bytes":    "B",
	"transport.send_busy_s":   "s",
	"transport.send_us":       "us",
	"transport.vectored_frac": "ratio",
	"transport.recv_frames":   "count",
	"tcp.retransmits":         "count",
	"tcp.crc_rejects":         "count",

	"service.submit_us":    "us",
	"service.queue_wait_s": "s",
	"service.run_s":        "s",
	"service.overhead_s":   "s",
	"service.refused":      "count",
	"service.failed":       "count",
	"svc.gen_lag_s":        "s",

	"obs.trace_overhead": "ratio",
	"go.gc_cycles":       "count",
}

// complete checks a workload's metrics against the catalog: every
// end-to-end metric must be present and nonzero, per-layer metrics the
// workload did not produce are added as 0, and nothing outside the catalog
// may appear.
func (r *report) complete() error {
	for name, unit := range e2eUnits {
		m, ok := r.e2e[name]
		if !ok || m.Value == 0 {
			return fmt.Errorf("end-to-end metric %s missing or 0", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, catalog says %q", name, m.Unit, unit)
		}
	}
	for name, unit := range layerUnits {
		m, ok := r.layer[name]
		if !ok {
			r.layer[name] = metric{Value: 0, Unit: unit}
		} else if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, catalog says %q", name, m.Unit, unit)
		}
	}
	for _, set := range []map[string]metric{r.e2e, r.layer} {
		for name := range set {
			if e2eUnits[name] == "" && layerUnits[name] == "" {
				return fmt.Errorf("metric %s is not in the catalog", name)
			}
		}
	}
	return nil
}
