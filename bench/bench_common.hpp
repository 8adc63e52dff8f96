// Shared scaffolding for the experiment benches.
//
// Every bench binary regenerates one table/figure-equivalent of the paper's
// evaluation (see DESIGN.md, "Per-experiment index") and prints it as an
// aligned table; pass --csv to emit machine-readable CSV instead.
//
// Benches additionally publish their headline numbers through a Reporter:
//   --json-dir=DIR   write DIR/BENCH_<name>.json (schema below)
//   --smoke          scale run lengths down (Reporter::slots) so CI can
//                    validate the emission path in seconds
// The JSON schema is fixed (scripts/validate_bench_json.py enforces it):
//   { "bench", "schema_version", "git_rev", "timestamp", "smoke",
//     "seeds": [...], "metrics": [{"metric", "value", "units"}, ...] }
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "phy/topology.hpp"
#include "util/table.hpp"

#ifndef WRT_GIT_REV
#define WRT_GIT_REV "unknown"
#endif

namespace wrt::bench {

inline bool csv_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return true;
  }
  return false;
}

inline void emit(const util::Table& table, bool csv) {
  if (csv) {
    std::cout << "# " << table.title() << '\n';
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

/// N stations on a circle, range covering ~2 ring hops (cut-out capable).
using phy::ring_room;

/// Dense room: everyone hears everyone (TPT's natural habitat).
inline phy::Topology dense_room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 5.0),
                       phy::RadioParams{100.0, 0.0});
}

/// Collects a bench's headline metrics and, when --json-dir=DIR was passed,
/// writes them as DIR/BENCH_<name>.json on destruction.  Also owns the
/// shared flag parsing (--csv / --smoke / --json-dir=).
class Reporter {
 public:
  Reporter(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--csv") {
        csv_ = true;
      } else if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg.rfind("--json-dir=", 0) == 0) {
        json_dir_ = arg.substr(std::string("--json-dir=").size());
      }
    }
  }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;
  ~Reporter() { write(); }

  [[nodiscard]] bool csv() const noexcept { return csv_; }
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// Smoke mode divides run lengths by 16 (floor 256 slots) so every bench
  /// still exercises its real path but finishes in CI time.
  [[nodiscard]] std::int64_t slots(std::int64_t full) const noexcept {
    if (!smoke_) return full;
    return std::max<std::int64_t>(full / 16, 256);
  }

  /// Smoke-mode cap for sweep widths (station counts, repetition counts).
  [[nodiscard]] std::size_t cap(std::size_t full,
                                std::size_t smoke_cap) const noexcept {
    return smoke_ ? std::min(full, smoke_cap) : full;
  }

  void seed(std::uint64_t value) {
    if (std::find(seeds_.begin(), seeds_.end(), value) == seeds_.end()) {
      seeds_.push_back(value);
    }
  }

  void metric(const std::string& metric_name, double value,
              const std::string& units) {
    metrics_.push_back({metric_name, value, units});
  }

  /// Writes BENCH_<name>.json now (idempotent; the destructor is a no-op
  /// afterwards).  Returns false on I/O failure or when no --json-dir was
  /// given.
  bool write() {
    if (written_ || json_dir_.empty()) return false;
    written_ = true;
    const std::string path = json_dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench::Reporter: cannot open " << path << '\n';
      return false;
    }
    out << "{\n"
        << "  \"bench\": \"" << escape(name_) << "\",\n"
        << "  \"schema_version\": 1,\n"
        << "  \"git_rev\": \"" << escape(WRT_GIT_REV) << "\",\n"
        << "  \"timestamp\": \"" << timestamp_utc() << "\",\n"
        << "  \"smoke\": " << (smoke_ ? "true" : "false") << ",\n"
        << "  \"seeds\": [";
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << seeds_[i];
    }
    out << "],\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"metric\": \""
          << escape(m.name) << "\", \"value\": " << json_number(m.value)
          << ", \"units\": \"" << escape(m.units) << "\"}";
    }
    out << "\n  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string units;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  /// NaN / infinity are not valid JSON numbers; emit null so consumers fail
  /// loudly instead of choking on "nan".
  static std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  }

  static std::string timestamp_utc() {
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buffer[32];
    std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buffer;
  }

  std::string name_;
  bool csv_ = false;
  bool smoke_ = false;
  bool written_ = false;
  std::string json_dir_;
  std::vector<std::uint64_t> seeds_;
  std::vector<Metric> metrics_;
};

}  // namespace wrt::bench
