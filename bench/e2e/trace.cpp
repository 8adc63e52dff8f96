#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace wrt::e2e {

SpanTable Tracer::totals(std::uint32_t run) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.run == run && span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  SpanTable table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.run != run) continue;
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = table[span.name];
    totals.self_ns += duration - child_ns[i];
    ++totals.count;
    totals.durations_us.push_back(static_cast<double>(duration) * 1e-3);
  }
  return table;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", span.name, layer.c_str(), span.run,
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double self_ns(const SpanTable& table,
               std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const char* name : names) {
    const auto it = table.find(name);
    if (it != table.end()) total += static_cast<double>(it->second.self_ns);
  }
  return total;
}

double mean_us(const SpanTable& table, const char* name) {
  const auto it = table.find(name);
  if (it == table.end() || it->second.count == 0) return 0.0;
  double sum = 0.0;
  for (const double us : it->second.durations_us) sum += us;
  return sum / static_cast<double>(it->second.count);
}

}  // namespace wrt::e2e
