// Negative fixture for tools/lint_determinism.sh --self-test.
//
// NEVER compiled (the tools/ CMake glob is non-recursive) and NEVER
// linted as product code (the lint's file walk excludes tools/fixtures/).
// Every determinism rule must fire on this file; the self-test fails CI
// if one stops detecting its violation class. Keep one example per rule,
// plus the two malformed-escape cases.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <thread>

namespace fixture {

// [wall-clock] calendar time can never reach simulation state.
inline long bad_wall_clock() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

// [wall-clock] C time() is the same violation through the C library.
inline long bad_c_time() { return time(nullptr); }

// [steady-clock] monotonic clock WITHOUT the mandatory annotated escape.
inline long bad_steady_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

// A correct escape: annotated, with a reason — must NOT be flagged.
inline long ok_steady_clock() {
  // determinism: allow(steady-clock) wall-seconds diagnostic, never emitted
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

// A malformed escape: right rule, no reason — must be rejected.
inline long bad_escape_no_reason() {
  // determinism: allow(steady-clock)
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

// A forbidden escape: wall-clock has no legitimate sites by design.
inline long bad_escape_wrong_rule() {
  return clock();  // determinism: allow(wall-clock) not allowed at all
}

// [ambient-rng] randomness outside support/rng.
inline int bad_rand() { return rand(); }
inline unsigned bad_random_device() { return std::random_device{}(); }
inline unsigned bad_mt19937() { return std::mt19937{42}(); }

// [raw-thread] a hand-rolled thread instead of parallel_for.
inline void bad_raw_thread() { std::thread([] {}).join(); }

// Querying the core count is not a thread — must NOT be flagged.
inline unsigned ok_hardware_concurrency() {
  return std::thread::hardware_concurrency();
}

// [uninit-seed] lives in determinism_bad_header.hpp (rule is .hpp-only).

}  // namespace fixture
