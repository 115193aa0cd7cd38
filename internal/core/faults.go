package core

import (
	"fmt"
	"sync/atomic"

	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/report"
	"columbia/internal/vmpi"
)

// RunConfig is one run's simulation configuration: everything beyond a
// point's own spec that shapes its result, and therefore its cache key.
// It is process-global, like the sweep pool, because experiments are free
// functions registered at init time; the CLI (and tests) install it with
// Configure, and the worker handshake installs the same value in each
// worker process.
type RunConfig struct {
	// Faults is the fault plan applied to every point; nil is the healthy
	// machine. Faulted and healthy points never share memo-cache entries —
	// the plan is part of each point's fingerprint.
	Faults *fault.Plan
	// Sanitize runs every point under the communication sanitizer
	// (vmpi.Config.Sanitize, package commsan); the toggle is part of each
	// point's fingerprint.
	Sanitize bool
	// Noise is the performance-noise spec; nil (or an empty spec) is
	// silence. The spec, including its seed, is part of each noisy point's
	// fingerprint.
	Noise *noise.Spec
	// Replicas is the ensemble size: every point fans out into this many
	// replicas that differ only in their noise replica index. Values below
	// 1 mean single-shot operation.
	Replicas int
}

// runConfig holds the installed RunConfig; nil is the zero value.
var runConfig atomic.Pointer[RunConfig]

// Configure installs rc for every subsequently submitted point and returns
// the configuration it replaces, so a caller can restore it with
// defer Configure(Configure(rc)).
func Configure(rc RunConfig) (prev RunConfig) {
	if p := runConfig.Swap(&rc); p != nil {
		prev = *p
	}
	return prev
}

// Current returns the installed RunConfig.
func Current() RunConfig {
	if p := runConfig.Load(); p != nil {
		return *p
	}
	return RunConfig{}
}

// apply stamps the run's fault plan, sanitizer toggle and noise spec (bound
// to the given ensemble replica) into a point's config. Call it before
// computing the cache key so the fingerprint reflects all of them. Under a
// silent spec the replica index is discarded — every replica of a
// noiseless point shares one fingerprint, so an ensemble sweep without
// -noise memo-collapses to single computations.
func (rc RunConfig) apply(cfg vmpi.Config, replica int) vmpi.Config {
	cfg.Faults = rc.Faults
	cfg.Sanitize = rc.Sanitize
	if !rc.Noise.Empty() {
		cfg.Noise = rc.Noise.WithReplica(replica)
	}
	return cfg
}

// waitCell collects one submitted point into a table cell. Single-shot
// points (ensemble size 1) keep their historical rendering exactly: the
// rendered value on success, or a degraded "!kind" annotation (counted in
// t.Failures) on failure, so one sick point cannot abort a whole table.
// Ensembles of float-rendered replicas aggregate into a distribution cell
// (min/avg/max ±spread); a partially failed ensemble keeps its surviving
// distribution and appends one failure annotation with the survivor count.
func waitCell[T any](t *report.Table, e Ens[T], render func(T) any) any {
	vals, firstErr, fails := e.collect()
	if len(vals) == 0 {
		return t.FailCell(firstErr)
	}
	if e.size() == 1 {
		return render(vals[0])
	}
	nums := make([]float64, 0, len(vals))
	for _, v := range vals {
		f, ok := render(v).(float64)
		if !ok {
			// Non-numeric renders cannot aggregate; the first surviving
			// replica's view stands in for the ensemble.
			return render(vals[0])
		}
		nums = append(nums, f)
	}
	return ensCell(t, nums, firstErr, fails, e.size())
}

// ensCell renders collected replica values as one cell: the bare value for
// single-shot points (so AddF formatting is byte-identical to the
// pre-ensemble renderer), a distribution cell otherwise, annotated with the
// first failure when some — but not all — replicas died.
func ensCell(t *report.Table, vals []float64, firstErr error, fails, total int) any {
	if len(vals) == 0 {
		return t.FailCell(firstErr)
	}
	if total == 1 {
		return vals[0]
	}
	cell := report.EnsembleCell(vals)
	if fails > 0 {
		cell = fmt.Sprintf("%s %s(%d/%d)", cell, t.FailCell(firstErr), len(vals), total)
	}
	return cell
}

// cellText renders a waitCell result at a Table.Add (string-typed) call
// site: floats through report.Fmt, everything else — distribution cells,
// "!kind" annotations — verbatim.
func cellText(v any) string {
	if f, ok := v.(float64); ok {
		return report.Fmt(f)
	}
	return fmt.Sprint(v)
}

// numCell is the identity render for float64-valued points.
func numCell(v float64) any { return v }
