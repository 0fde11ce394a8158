// The end-to-end ExplFrame campaign (§V + §VI of the paper), cipher- and
// analysis-agnostic:
//
//   1. TEMPLATE  — hammer the attacker's own buffer until a page with a
//                  usable flip is found (usable = the flip's page offset
//                  falls inside the victim's table window, the bit is live
//                  for the cipher, and its polarity matches the canonical
//                  table bit at that position).
//   2. PLANT     — munmap that single page; its frame lands at the hot head
//                  of the current CPU's page frame cache. Stay active.
//   3. STEER     — the victim (same CPU) installs its crypto context; its
//                  first-touched page receives the planted frame.
//   4. HAMMER    — re-hammer the SAME aggressor virtual addresses (still
//                  mapped); the same weak cell flips again, now corrupting
//                  the victim's table.
//   5. HARVEST   — collect ciphertexts of the victim encrypting unknown
//                  plaintexts.
//   6. ANALYSE   — the fault::Analysis engine (PFA) recovers the master key.
//
// TemplatedCampaign runs phase 1 in its constructor and holds the one
// implementation of phases 2-6 (run_phase; NOISE is an optional phase
// between PLANT and STEER). run_fork drives them in a loop; run_campaign is
// the single-shot entry point, and scenario::DebugSession steps the same
// phases one at a time. Every (cipher, analysis) combination goes through
// this one pipeline, chosen by a CampaignConfig. The attacker never reads
// /proc/<pid>/pagemap; PFNs appear only in the report's ground-truth
// section, filled in by the harness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/templating.hpp"
#include "attack/victim.hpp"
#include "crypto/table_cipher.hpp"
#include "fault/analysis.hpp"
#include "kernel/system.hpp"
#include "snapshot/restorable.hpp"

namespace explframe::attack {

/// Everything one campaign needs: the (cipher, analysis) pair, per-phase
/// budgets, the contention knobs and the master seed. Plain data — a
/// scenario or bench fills it in and hands it to run_campaign.
struct CampaignConfig {
  crypto::CipherKind cipher = crypto::CipherKind::kAes128;
  fault::AnalysisKind analysis = fault::AnalysisKind::kPfaMissingValue;
  TemplateConfig templating;
  VictimConfig victim;
  std::uint32_t cpu = 0;  ///< CPU shared by attacker and victim.
  /// Ciphertexts harvested before giving up on key recovery.
  std::uint32_t ciphertext_budget = 6000;
  /// Harvested ciphertexts between key-recovery attempts (0 = a cadence
  /// matched to the cipher's table alphabet: 256 for AES, 25 for PRESENT).
  std::uint32_t analysis_check_interval = 0;
  /// analysis_check_interval with 0 resolved for a `table_size` alphabet.
  std::uint32_t check_interval(std::size_t table_size) const noexcept {
    if (analysis_check_interval != 0) return analysis_check_interval;
    return table_size >= 256 ? 256 : 25;
  }
  /// Harvest through the batched fast path (snapshot-validated
  /// VictimCipherService::encrypt_batch + Analysis::add_ciphertext_batch,
  /// chunked at the check cadence). Byte-identical reports either way —
  /// false exists only as the differential-testing escape hatch.
  bool batched_harvest = true;
  /// Run the post-templating phases off a machine snapshot captured right
  /// after templating (TemplatedCampaign). Byte-identical reports either
  /// way — false exists only as the differential-testing escape hatch;
  /// true additionally lets campaign groups sharing a templated base fork
  /// trials instead of re-templating (the sweep amortization).
  bool fork_from_snapshot = true;
  /// Background noise operations between plant and victim allocation
  /// (models other activity racing for the planted frame). CPU of the
  /// noise task and whether it shares the attack CPU are configurable.
  std::uint32_t noise_ops = 0;
  std::uint32_t noise_cpu = 0;
  /// If true, the attacker sleeps (yields the CPU to the noise task)
  /// between plant and victim allocation — the failure mode the paper
  /// warns about. If false the attacker stays active (paper's attack).
  bool attacker_sleeps = false;
  /// Master seed. The campaign derives independent sub-seeds from it for
  /// templating, the victim key (when victim.key is empty), the noise
  /// workload and the harvested plaintexts, so parallel trials seeded with
  /// distinct values share no RNG stream. TemplateConfig::seed is
  /// overridden by the derived value.
  std::uint64_t seed = 42;
};

/// Every phase outcome, for the experiment tables — one struct for all
/// ciphers (keys are raw bytes sized by the cipher).
struct CampaignReport {
  crypto::CipherKind cipher = crypto::CipherKind::kAes128;

  // Phase 1: templating.
  /// The machine ran out of memory faulting in the attack buffer, so
  /// templating never scanned (template_found stays false).
  bool buffer_oom = false;
  bool template_found = false;
  std::uint64_t rows_scanned = 0;
  std::uint64_t flips_found = 0;
  FlipRecord chosen;              ///< The flip used for the attack.
  std::uint16_t table_index = 0;  ///< Table entry the flip corrupts.
  std::uint8_t fault_mask = 0;

  // Phase 3: steering (ground truth).
  bool steered = false;  ///< Victim's table page received the planted frame.
  mm::Pfn planted_pfn = mm::kInvalidPfn;
  mm::Pfn victim_table_pfn = mm::kInvalidPfn;

  // Phase 4: fault injection (ground truth).
  bool fault_injected = false;  ///< Victim table corrupted after re-hammer.
  bool fault_as_predicted = false;  ///< Exactly the templated bit flipped.

  // Phase 5/6: analysis.
  std::uint32_t ciphertexts_used = 0;
  std::uint32_t residual_search = 0;  ///< Brute-force candidates (PRESENT).
  bool key_recovered = false;
  std::vector<std::uint8_t> recovered_key;

  // Ground truth: the key the victim actually used (config key, or the
  // seed-derived key when the config left it empty).
  std::vector<std::uint8_t> victim_key;

  bool success = false;  ///< key_recovered && matches victim key.
  SimTime total_time = 0;

  // ---- Timing breakdown --------------------------------------------------
  /// Simulated time spent in phase 1 (templating); the rest of total_time
  /// is the post-template attack. Deterministic (simulated clock).
  SimTime template_time = 0;
  /// Host wall-clock seconds spent templating. NOT byte-stable — excluded
  /// from every golden-checked emitter; stdout/bench diagnostics only.
  double template_wall_seconds = 0.0;
  /// True if this report was produced by forking from a post-templating
  /// snapshot (its templating phase was shared, not re-run). Diagnostic
  /// only; every other field is byte-identical either way.
  bool forked_from_template = false;

  /// First pipeline phase that failed ("none" on success).
  std::string failure_stage() const;
};

/// Canonical serialization of every (system, campaign) field that shapes
/// the templating phase's outcome — geometry/timings/weak cells/defences,
/// the full templating config, the victim allocation shape, the CPU —
/// and nothing that only matters after templating (analysis kind, budgets,
/// noise, harvest/fork flags, the campaign master seed). Two configs with
/// equal keys and equal master seeds template identically, so their trials
/// may fork from one shared post-templating snapshot (SweepRunner groups
/// grid points by this key).
std::string template_key(const kernel::SystemConfig& system,
                         const CampaignConfig& campaign);

/// The campaign split at its natural seam: construction runs setup +
/// templating (phase 1), then — when `take_snapshot` — captures a machine
/// snapshot; run_fork() restores that snapshot and runs the post-template
/// phases (2-6), so N variants sharing a templated base cost one
/// templating plus N cheap forks. With take_snapshot = false there is no
/// snapshot machinery at all and a single run_fork() is exactly the legacy
/// single-shot campaign (the differential-testing escape hatch mirrors
/// batched_harvest's).
///
/// Reports are byte-identical to fresh single-shot runs because (a) the
/// machine restore is exact (snap::Restorable contract; the mmap cursor
/// restore makes the victim's post-fork VAs match a fresh run), and
/// (b) every post-template knob comes from the run_fork argument while
/// every template-shaping field is CHECKed equal to the templated base
/// (template_key + master seed).
class TemplatedCampaign {
 public:
  /// The post-template phases, in execution order.
  enum class Phase { kPlant, kNoise, kSteer, kHammer, kHarvest };

  /// Runs setup + templating immediately on `system` (which must be
  /// freshly constructed, as in CampaignRunner::run_trial).
  TemplatedCampaign(kernel::System& system, const CampaignConfig& config,
                    bool take_snapshot);

  /// Run phases 2-6 under `config`: begin_fork(), then run_phase() for
  /// each of phases(config). Restores the post-template snapshot first
  /// when one was taken, so calls are independent; without one, at most a
  /// single call is meaningful.
  CampaignReport run_fork(const CampaignConfig& config);

  /// The phases run_fork executes under `config`: none when templating
  /// found no usable flip, kNoise only when config.noise_ops > 0.
  std::vector<Phase> phases(const CampaignConfig& config) const;
  /// Start a fork: CHECK that `config` agrees with the templated base on
  /// template_key and master seed, restore the post-template snapshot (if
  /// any), and return the phase-1 report with total_time set.
  CampaignReport begin_fork(const CampaignConfig& config);
  /// Execute one post-template phase on the machine, recording its outcome
  /// and the elapsed total_time in `report`. Harvest is a no-op when the
  /// report says steering or fault injection failed.
  void run_phase(Phase phase, const CampaignConfig& config,
                 CampaignReport& report);

  // ---- Introspection (debugger + tests) ---------------------------------
  /// Phase-1 outcome fields (template_found, chosen flip, victim key, ...).
  const CampaignReport& template_result() const noexcept { return partial_; }
  /// The fault model derived from the chosen flip (valid iff
  /// template_result().template_found).
  const fault::FaultModel& fault_model() const noexcept { return fault_model_; }
  VictimCipherService& victim() noexcept { return *victim_; }
  Templater& templater() noexcept { return *templater_; }
  const crypto::TableCipher& cipher() const noexcept { return *cipher_; }
  std::uint64_t plaintext_seed() const noexcept { return plaintext_seed_; }

 private:
  /// Phases 5 + 6: harvest ciphertexts and run the fault analysis.
  void harvest(const CampaignConfig& config, CampaignReport& report);

  kernel::System* system_;
  CampaignConfig config_;
  const crypto::TableCipher* cipher_ = nullptr;
  std::unique_ptr<VictimCipherService> victim_;
  std::unique_ptr<Templater> templater_;
  kernel::Task* attacker_ = nullptr;
  CampaignReport partial_;  ///< Phase-1 fields, copied into every fork.
  fault::FaultModel fault_model_;
  std::uint64_t noise_seed_ = 0;
  std::uint64_t plaintext_seed_ = 0;
  SimTime start_ = 0;
  SimTime template_time_ = 0;
  double template_wall_ = 0.0;
  std::unique_ptr<snap::Snapshot> post_template_;
};

/// The six-phase pipeline above over one kernel::System: template once and
/// fork once. config.fork_from_snapshot selects whether the fork really
/// goes through a snapshot restore (exercising the CoW machinery on every
/// campaign) or runs straight through (the legacy path). `config` is never
/// mutated (derived seeds and the seed-derived victim key live in the
/// campaign), but `system` is: for a bit-identical repeat, run on a fresh
/// System.
CampaignReport run_campaign(kernel::System& system,
                            const CampaignConfig& config);

}  // namespace explframe::attack
