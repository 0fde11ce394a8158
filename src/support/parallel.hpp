// parallel_for — the one worker pool for batch runs (a campaign's trials,
// a sweep's (group, trial) pairs). Workers pull indices from one shared
// counter, so tasks start in index order and a slow one never holds up
// the rest; each task writes only to slots keyed by its own index, which
// keeps every aggregate independent of thread count and scheduling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace explframe {

/// The largest thread count any input (a .scn file, `explsim --threads`, a
/// daemon request) may ask for. parallel_for clamps only to the task count,
/// so every parser enforces this bound before a count reaches it.
inline constexpr std::uint32_t kMaxThreads = 256;

/// Run task(i) once for every i in [0, n) on `threads` workers, clamped to
/// [1, n]; the calling thread is one of them. `stop` (may be empty) is
/// polled before every claim — once it returns true no further task
/// starts, tasks already running finish, and the call returns. Both
/// callables run concurrently on several threads and must be thread-safe.
/// The first exception a task throws also stops further starts and is
/// rethrown here after every worker has joined.
inline void parallel_for(std::size_t n, std::uint32_t threads,
                         const std::function<void(std::size_t)>& task,
                         const std::function<bool()>& stop = nullptr) {
  if (n == 0) return;
  const std::size_t workers = std::clamp<std::size_t>(threads, 1, n);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;  // Guards first_error.
  std::exception_ptr first_error;
  const auto worker = [&] {
    try {
      while (!(stop && stop())) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        task(i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      next.store(n);  // Every later claim comes back out of range.
    }
  };
  {
    std::vector<std::jthread> pool;  // Joined when the scope closes.
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace explframe
