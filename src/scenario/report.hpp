// scenario::report — run a Scenario and render the reproduction handbook.
//
// Every emitter here is *byte-stable*: for a fixed scenario (seed included)
// the markdown and CSV output is identical across runs, thread counts and
// machines, because it contains only simulation-derived values — never
// wall-clock time, hostnames or dates. That is what lets CI regenerate
// docs/results/ with `explsim all --check` and fail on any byte of drift.
#pragma once

#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace explframe::scenario {

/// A scenario together with its sweep outcome.
struct ScenarioResult {
  Scenario scenario;
  attack::CampaignAggregate aggregate;
};

/// Execute `s` through CampaignRunner. `threads_override` (0 = use the
/// scenario's own thread count) changes wall-clock time only.
ScenarioResult run_scenario(const Scenario& s,
                            std::uint32_t threads_override = 0);

/// The per-scenario markdown report (docs/results/<name>.md): description,
/// canonical .scn configuration, phase-outcome table, aggregate statistics
/// and the failure-stage breakdown.
std::string markdown_report(const ScenarioResult& result);

/// The per-scenario per-trial CSV (docs/results/<name>.csv): one row per
/// trial with the attack::TrialRow columns the sweep CSV also publishes.
std::string csv_report(const ScenarioResult& result);

/// The handbook index (docs/results/README.md): one summary row per
/// scenario, in registry order.
std::string markdown_index(const std::vector<ScenarioResult>& results);

}  // namespace explframe::scenario
