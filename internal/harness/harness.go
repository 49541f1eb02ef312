// Package harness regenerates the paper's evaluation (§4) from a fixed
// catalog of experiments: Table 2, Figures 5-8, recovery latency,
// detection tolerance, and the snooping and two-protocol variants. Each
// entry declares a grid of design points (runner.RunConfigs) and a
// reduce step folding the measured results into a structured Report
// that renders as text and marshals to JSON and CSV. RunExperiment is
// the one way to run an entry. Points run independently — every run
// owns its own deterministic engine — so runner.RunAll fans them across
// a worker pool without changing any result. cmd/snbench and the
// repository's benchmarks are thin wrappers around this package; new
// sweeps are campaign JSON (internal/campaign), not catalog entries.
//
// The single-run executor, the worker pool, and the sweep sizing
// (runner.Options) live one layer down, in internal/runner, which this
// package shares with the campaign engine (internal/campaign) and the
// exploration engine (internal/explore); experiments program against
// the runner types directly, so there is exactly one run-description
// and one sizing vocabulary across every orchestrator.
package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// perturbSeedStride spaces the perturbed-run seeds; campaign seed
// ranges reuse it so migrated experiments expand to identical grids.
const perturbSeedStride = 7919

// perturbed returns the i-th perturbed copy of p: a distinct seed and a
// small pseudo-random memory-latency jitter (Alameldeen methodology).
func perturbed(p config.Params, o runner.Options, i int) config.Params {
	p.Seed = o.BaseSeed + uint64(i)*perturbSeedStride
	p.LatencyPerturbation = 4
	return p
}

// victimSwitchNode is the node whose east-west half-switch Experiment 3
// kills; it sits on busy central routes of the 4x4 torus.
const victimSwitchNode = 5
