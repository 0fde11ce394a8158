// Span logs, per-layer self time and the Chrome trace-event writer.
#include <fstream>

#include "bench.hpp"

namespace explbench {

std::size_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.trial = trial_;
  s.tid = tid_;
  s.cpu = cpu_s();
  s.start = now_s();
  spans.push_back(std::move(s));
  open_ = static_cast<std::int32_t>(spans.size() - 1);
  return spans.size() - 1;
}

void SpanLog::close(std::size_t index) {
  Span& s = spans[index];
  s.end = now_s();
  s.cpu = cpu_s() - s.cpu;
  open_ = s.parent;
}

void SpanSet::merge(const SpanLog& log) {
  const auto base = static_cast<std::int32_t>(spans.size());
  for (Span s : log.spans) {
    if (s.parent >= 0) s.parent += base;
    spans.push_back(std::move(s));
  }
}

double SpanSet::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

double SpanSet::total_cpu(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans)
    if (s.name == name) sum += s.cpu;
  return sum;
}

std::size_t SpanSet::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans) n += s.name == name;
  return n;
}

std::map<std::string, std::pair<double, std::size_t>> SpanSet::self_by_layer()
    const {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [seconds, count] = out[spans[i].name.substr(0, spans[i].name.find('.'))];
    seconds += self[i];
    ++count;
  }
  return out;
}

bool SpanSet::write_chrome(const std::string& path,
                           const std::string& stamp) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << stamp
      << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\": " << json_str(s.name)
        << ", \"cat\": " << json_str(s.name.substr(0, s.name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << json_num(s.start * 1e6)
        << ", \"dur\": " << json_num((s.end - s.start) * 1e6)
        << ", \"args\": {\"trial\": " << s.trial << ", \"parent\": "
        << (s.parent >= 0 ? json_str(spans[static_cast<std::size_t>(s.parent)].name)
                          : std::string("null"))
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace explbench
