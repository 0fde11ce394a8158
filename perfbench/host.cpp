// Host clocks, resource usage and the provenance stamp of result records.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace explbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

bool has_aes_ni() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("aes");
#else
  return false;
#endif
}

/// Magic number (statfs f_type, as in statfs(2)) of the filesystem
/// holding `path`, where the daemon's spool lives; 0xef53 is ext4.
std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

/// Lines of src/ (*.cpp, *.hpp) and an FNV-1a digest of its paths and
/// bytes — identifies the simulator's code even outside a git checkout.
std::pair<std::uint64_t, std::uint64_t> src_lines_and_digest(
    const std::string& repo) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(fs::path(repo) / "src", ec), end;
       !ec && it != end; it.increment(ec)) {
    const auto ext = it->path().extension();
    if (it->is_regular_file() && (ext == ".cpp" || ext == ".hpp"))
      files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t lines = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    const std::string text = body.str();
    lines += static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
    mix(fs::relative(file, repo).generic_string());
    mix(text);
  }
  return {lines, hash};
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_stamp(const Options& options) {
  const auto [lines, digest] = src_lines_and_digest(options.repo);
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  const std::pair<const char*, std::string> fields[] = {
      {"workload", json_str(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"trace", options.trace ? "true" : "false"},
      {"threads", std::to_string(options.threads)},
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", json_str(cpu_model())},
      {"aes_ni", has_aes_ni() ? "true" : "false"},
      {"compiler", json_str(EXPLBENCH_COMPILER)},
      {"build_type", json_str(EXPLBENCH_BUILD_TYPE)},
      {"spool_fs", json_str(fs_type(options.out))},
      {"src_lines", std::to_string(lines)},
      {"src_digest", json_str(hex)},
      {"commit", json_str(options.commit)},
  };
  std::string out = "{";
  for (const auto& [key, value] : fields)
    out += (out.size() > 1 ? ", " : "") + json_str(key) + ": " + value;
  return out + "}";
}

}  // namespace explbench
