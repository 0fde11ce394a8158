// sweep::SweepRunner — execution, checkpoint round-trip and resume-equals-
// fresh guarantees.
#include "sweep/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "sweep/report.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// Small but real grid: 2x2 points x 2 trials of the quickstart attack.
SweepSpec tiny_spec() {
  const auto spec = SweepSpec::from_sweep(
      "name = tiny-grid\n"
      "title = Tiny test grid\n"
      "base = quickstart\n"
      "base.trials = 2\n"
      "axis.defence = none,trr\n"
      "axis.max_rows = 24,48\n");
  EXPLFRAME_CHECK(spec.has_value());
  return *spec;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// The checkpoint header line the runner writes for `spec`.
std::string header_line(const SweepSpec& spec) {
  const char* digits = "0123456789abcdef";
  std::uint64_t h = spec.spec_hash(scenarios());
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) hex[i] = digits[h & 0xf];
  return "explsim-sweep-checkpoint v1 sweep=" + spec.name +
         " spec_hash=" + hex;
}

TEST(SweepRunner, RunsEveryPointInIndexOrder) {
  const SweepSpec spec = tiny_spec();
  std::string error;
  const auto result = run_sweep(spec, scenarios(), {}, &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 4u);
  for (std::size_t i = 0; i < result->records.size(); ++i) {
    EXPECT_EQ(result->records[i].index, i);
    EXPECT_EQ(result->records[i].id, result->points[i].id);
    EXPECT_EQ(result->records[i].trials.size(), 2u);
  }
  EXPECT_EQ(result->resumed_points, 0u);
}

TEST(SweepRunner, ResultsAreIndependentOfThreadCount) {
  const SweepSpec spec = tiny_spec();
  SweepRunOptions serial;
  serial.threads = 1;
  SweepRunOptions wide;
  wide.threads = 8;
  const auto a = run_sweep(spec, scenarios(), serial);
  const auto b = run_sweep(spec, scenarios(), wide);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->records, b->records);
}

TEST(PointRecord, SerializesAndParsesLosslessly) {
  const auto result = run_sweep(tiny_spec(), scenarios(), {});
  ASSERT_TRUE(result.has_value());
  for (const PointRecord& record : result->records) {
    std::string error;
    const auto reparsed = PointRecord::parse(record.serialize(), &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, record);
  }
}

TEST(PointRecord, ParseRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(PointRecord::parse("pt 0 id 1,2", &error).has_value());
  EXPECT_FALSE(PointRecord::parse("point x id 1,2", &error).has_value());
  EXPECT_FALSE(PointRecord::parse("point 0 id", &error).has_value());
  // Wrong trial field count / non-numeric fields.
  EXPECT_FALSE(PointRecord::parse("point 0 id 1,2,3", &error).has_value());
  EXPECT_FALSE(
      PointRecord::parse("point 0 id 1,2,3,4,5,6,7,8,9,10,stage,x", &error)
          .has_value());
}

TEST(SweepRunner, WritesAndRemovesCheckpoint) {
  const std::string path = temp_path("complete.ckpt");
  std::filesystem::remove(path);
  SweepRunOptions options;
  options.checkpoint_path = path;
  const auto result = run_sweep(tiny_spec(), scenarios(), options);
  ASSERT_TRUE(result.has_value());
  // A completed sweep has nothing to resume: the checkpoint is gone.
  EXPECT_FALSE(std::filesystem::exists(path));
}

// The acceptance-criteria invariant: a run resumed from a partial
// checkpoint produces records equal to an uninterrupted run, point for
// point and trial for trial — which is what makes the emitted CSV and
// markdown byte-identical.
TEST(SweepRunner, ResumeEqualsFreshPerPoint) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path = temp_path("partial.ckpt");
  std::filesystem::remove(path);

  // Simulate an interrupted run: only points 0 and 2 made it to the log,
  // and the process died while writing point 3's line.
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << fresh->records[0].serialize() << "\n";
    out << fresh->records[2].serialize() << "\n";
    // A torn final line (the mid-write crash): silently dropped.
    out << "point 3 defence=trr,max_rows=48 1,2";
  }

  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::size_t executed = 0;
  std::size_t resumed = 0;
  options.on_point = [&](const SweepPoint&, const PointRecord&,
                         bool was_resumed) {
    (was_resumed ? resumed : executed) += 1;
  };
  std::string error;
  const auto again = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(resumed, 2u);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(again->resumed_points, 2u);
  EXPECT_EQ(again->records, fresh->records);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// A resume that is itself interrupted must not corrupt the log: the first
// resume truncates the torn fragment before appending, so every line a
// later resume reads is well-formed. (Regression: "ab" used to append the
// next record directly onto the torn fragment, merging two lines and
// making the checkpoint permanently unloadable.)
TEST(SweepRunner, ResumeAfterTornLineLeavesLoadableCheckpoint) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path = temp_path("torn-twice.ckpt");
  std::filesystem::remove(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << fresh->records[0].serialize() << "\n";
    out << "point 1 defence=trr,max_";  // Torn mid-write, no newline.
  }

  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  options.remove_checkpoint_on_success = false;  // Keep the file to audit.
  std::string error;
  const auto resumed = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->resumed_points, 1u);
  EXPECT_EQ(resumed->records, fresh->records);

  // The completed log must parse cleanly — all 4 points, no merged lines.
  const auto reloaded =
      load_checkpoint(path, spec.name, spec.spec_hash(scenarios()), &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->size(), 4u);
  std::filesystem::remove(path);
}

TEST(SweepRunner, ResumeRejectsForeignCheckpoint) {
  const SweepSpec spec = tiny_spec();
  const std::string path = temp_path("foreign.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=tiny-grid "
        << "spec_hash=0123456789abcdef\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::string error;
  EXPECT_FALSE(run_sweep(spec, scenarios(), options, &error).has_value());
  EXPECT_NE(error.find("spec_hash does not match"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SweepRunner, ResumeRejectsCorruptMiddleRecord) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());
  const std::string path = temp_path("corrupt.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << "garbage line\n";
    out << fresh->records[1].serialize() << "\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::string error;
  EXPECT_FALSE(run_sweep(spec, scenarios(), options, &error).has_value());
  std::filesystem::remove(path);
}

TEST(SweepRunner, WithoutResumeAnExistingCheckpointIsTruncated) {
  const SweepSpec spec = tiny_spec();
  const std::string path = temp_path("stale.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=other spec_hash=ffff\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = false;  // Fresh run: the stale file must not matter.
  std::string error;
  const auto result = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->resumed_points, 0u);
}

// Cancelling mid-group keeps the checkpoint whole: a group's points are
// appended only when its last trial lands, so a partly run group leaves no
// line, and --resume finishes with the bytes of an uninterrupted run.
TEST(SweepRunner, CancelMidGroupCheckpointsOnlyWholePoints) {
  // Shared seeds over ciphertext_budget: each max_rows value is one
  // two-point group, run as (group, trial) tasks.
  const auto spec = SweepSpec::from_sweep(
      "name = cancel-grid\n"
      "title = Cancel mid-group\n"
      "base = quickstart\n"
      "base.trials = 2\n"
      "seed_mode = shared\n"
      "axis.max_rows = 24,32,40,48,56\n"
      "axis.ciphertext_budget = 1500,6000\n");
  ASSERT_TRUE(spec.has_value());
  const auto fresh = run_sweep(*spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path = temp_path("cancel-mid-group.ckpt");
  std::filesystem::remove(path);
  std::atomic<bool> cancel{false};
  SweepRunOptions options;
  options.threads = 3;
  options.checkpoint_path = path;
  options.cancel = &cancel;
  // Raised from inside the task that lands the first group. Tasks start
  // in index order and each of the two other workers holds or claims at
  // most one more, so at most 9 of the 10 tasks ever start: the last
  // group is always cut short.
  options.on_point = [&cancel](const SweepPoint&, const PointRecord&, bool) {
    cancel.store(true);
  };
  std::string error;
  EXPECT_FALSE(run_sweep(*spec, scenarios(), options, &error).has_value());
  EXPECT_NE(error.find("cancelled"), std::string::npos) << error;

  const auto logged =
      load_checkpoint(path, spec->name, spec->spec_hash(scenarios()), &error);
  ASSERT_TRUE(logged.has_value()) << error;
  EXPECT_LT(logged->size(), fresh->records.size());
  EXPECT_EQ(logged->size() % 2, 0u) << "a group was checkpointed in part";
  for (const PointRecord& record : *logged) {
    ASSERT_LT(record.index, fresh->records.size());
    EXPECT_EQ(record.trials.size(), 2u) << record.id;
    EXPECT_EQ(record, fresh->records[record.index]) << record.id;
  }

  SweepRunOptions resume;
  resume.threads = 3;
  resume.checkpoint_path = path;
  resume.resume = true;
  const auto resumed = run_sweep(*spec, scenarios(), resume, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->resumed_points, logged->size());
  EXPECT_EQ(resumed->records, fresh->records);
  EXPECT_EQ(sweep_csv(*resumed), sweep_csv(*fresh));
  EXPECT_EQ(sweep_markdown(*resumed), sweep_markdown(*fresh));
}

TEST(Checkpoint, LoadTreatsMissingFileAsEmpty) {
  std::string error;
  const auto records = load_checkpoint(temp_path("does-not-exist.ckpt"),
                                       "any", 7, &error);
  ASSERT_TRUE(records.has_value()) << error;
  EXPECT_TRUE(records->empty());
}

}  // namespace
}  // namespace explframe::sweep
