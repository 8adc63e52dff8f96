// wrt_bench — the repository's end-to-end benchmark (see README.md).
//
//   wrt_bench [--workload NAME] [--seed N] [--seconds S] [--trace=FILE]
//             [--smoke] [--json-dir=DIR]
//
// Each workload is a closed-loop driver advancing fixed chunks of
// simulated time back to back over an open-loop offered load.  Run length
// is fixed in chunks: --seconds converts to a chunk count through the
// per-workload rate below (chunks per second on the reference host, a
// 4-vCPU Intel Xeon virtual machine at 2.0 GHz nominal, shared), so
// two commits given the same arguments do identical work.  The untraced
// pass gives the end-to-end metrics.  It times every chunk and, spread
// over the pass, set-ups of throwaway copies of the workload, and runs a
// HostProbe after each block of chunks and each set-up, so that the
// wall-time metrics can be scaled to a quiet host.  --trace=FILE adds a
// second pass on fresh state that records a span around every call into a
// layer and audits the simulator's invariants after every chunk, derives the
// per-layer metrics from span self times, and writes the spans to FILE as
// Chrome trace_event JSON.  Without --workload all five run in this
// process.  The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding the end-to-end metrics, or the per-layer ones with --trace.
// Exit status is non-zero when an output check, an invariant audit or the
// federation worker-count digest check fails.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "bench/bench_common.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "host_probe.hpp"
#include "workload.hpp"

namespace wrt::e2e {

void DelayHistogram::add(std::int64_t slots) {
  slots = std::max<std::int64_t>(slots, 0);
  if (slots < kDenseSlots) {
    ++dense_[static_cast<std::size_t>(slots)];
  } else {
    ++sparse_[slots];
  }
  ++total_;
}

double DelayHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t bin = 0; bin < dense_.size(); ++bin) {
    seen += dense_[bin];
    if (seen >= rank) return static_cast<double>(bin);
  }
  for (const auto& [slots, count] : sparse_) {
    seen += count;
    if (seen >= rank) return static_cast<double>(slots);
  }
  return 0.0;  // not reached: rank <= total_
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)) ^
                        (0xd1b54a32d192ed03ULL * (index + 1));
  return util::splitmix64(state);
}

namespace {

// Set-up first runs untimed for kWarmupS: a process's first ~0.1 s runs
// at about half speed on the reference host, which made a sub-millisecond
// set-up read 0.6 ms in one run and 1.1 ms in the next.
constexpr double kWarmupS = 0.5;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

// The wall-time metrics are read against a HostProbe run on the same CPU
// after every block of chunks and after every set-up sample: each is the
// simulator's time scaled by HostProbe::kQuietMs over the probe's time,
// so it reads as a time on the reference host with its CPU to itself.
// The untraced pass takes kSetupSamples set-ups of throwaway copies of
// the workload, spread evenly over the pass.
constexpr std::size_t kSetupSamples = 11;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"sim_rate", "Mss/s"},      {"setup_s", "s"},
    {"rss_mb", "MB"},           {"rt_ontime_frac", "frac"},
    {"goodput", "pkt/slot"},
};

/// Per-layer metrics of the result line, in BENCHMARK.json order; every
/// workload reports each one.  The times are measured on every workload.
/// A count or ratio of a layer a workload does not run reads 0.
/// "<layer>.self_frac" is the layer's share of the traced pass's span self
/// time.  The chunk times and the delay tail come from the untraced pass;
/// they spread too widely from run to run (the chunk times with the host's
/// load, ring-faults' delay tail by 17 % between seeds) to hold an
/// end-to-end bound.
constexpr MetricDef kLayer[] = {
    {"sim_rate_wall", "Mss/s"},
    {"host.slowdown", "ratio"},
    {"chunk_ms_p50", "ms"},
    {"chunk_ms_p99", "ms"},
    {"rt_delay_p99_slots", "slots"},
    {"wrtring.ns_per_station_slot", "ns"},
    {"wrtring.init_ms", "ms"},
    {"check.invariants_us", "us"},
    {"wrtring.self_frac", "frac"},
    {"ring.self_frac", "frac"},
    {"traffic.self_frac", "frac"},
    {"phy.self_frac", "frac"},
    {"app.self_frac", "frac"},
    {"tpt.self_frac", "frac"},
    {"aloha.self_frac", "frac"},
    {"federation.self_frac", "frac"},
    {"check.self_frac", "frac"},
    {"wrtring.data_tx", "count"},
    {"wrtring.delivered", "count"},
    {"wrtring.delivery_ratio", "ratio"},
    {"wrtring.transit_per_delivery", "ratio"},
    {"wrtring.sat_rounds", "count"},
    {"wrtring.frames_lost", "count"},
    {"wrtring.recoveries", "count"},
    {"wrtring.rebuilds", "count"},
    {"wrtring.joins", "count"},
    {"wrtring.join_retries", "count"},
    {"fault.events_applied", "count"},
    {"ring.search_ok", "ratio"},
    {"app.admit_ratio", "ratio"},
    {"app.calls_ok", "calls"},
    {"tpt.calls_ok", "calls"},
    {"aloha.calls_ok", "calls"},
    {"aloha.success_ratio", "ratio"},
    {"aloha.collided_frames", "count"},
    {"aloha.retry_drops", "count"},
    {"federation.imbalance", "ratio"},
    {"federation.shard_frac", "frac"},
    {"federation.speedup", "ratio"},
    {"federation.crossings_posted", "count"},
    {"federation.crossings_delivered", "count"},
    {"federation.crossing_drops", "count"},
    {"federation.rt_admit_ratio", "ratio"},
    {"federation.in_flight_max", "count"},
    {"diffserv.backbone_depth_max", "count"},
    {"diffserv.tail_drops", "count"},
    {"check.violations", "count"},
    {"trace.overhead_frac", "frac"},
};

/// Per-layer times of one layer that only some workloads run.  They are
/// printed and written to BENCH_e2e.json for those workloads only, so no
/// workload reports a time it did not measure.
constexpr MetricDef kDetail[] = {
    {"ring.search_ms", "ms"},
    {"traffic.attach_ms", "ms"},
    {"app.fleet_build_ms", "ms"},
    {"app.admit_us_p50", "us"},
    {"app.admit_us_p99", "us"},
    {"app.score_ms", "ms"},
    {"tpt.ns_per_station_slot", "ns"},
    {"aloha.ns_per_station_slot", "ns"},
    {"phy.mobility_us", "us"},
    {"federation.init_s", "s"},
    {"federation.shard_busy_ms", "ms"},
    {"federation.critical_ms", "ms"},
};

struct WorkloadDef {
  const char* name;
  /// Wall-clock rate on the reference host under its usual load from
  /// other machines, so a run takes about --seconds there.
  double chunks_per_second;
  /// Chunks between two probes: whole episodes (a round of six faults, a
  /// partition and its heal, voice episodes of all three MACs), about
  /// 40 ms of work except ring-partition's 0.4 s failed search.
  std::int64_t block_chunks;
  std::unique_ptr<Workload> (*make)(const RunSpec&, Tracer&);
};

const WorkloadDef kWorkloads[] = {
    {"ring-clean", 220.0, 8,
     [](const RunSpec& s, Tracer& t) {
       return make_ring_workload(RingKind::kClean, s, t);
     }},
    {"ring-faults", 440.0, kFaultRoundChunks,
     [](const RunSpec& s, Tracer& t) {
       return make_ring_workload(RingKind::kFaults, s, t);
     }},
    {"ring-partition", 240.0, kPartitionEpisodeChunks,
     [](const RunSpec& s, Tracer& t) {
       return make_ring_workload(RingKind::kPartition, s, t);
     }},
    {"voice-mobile", 280.0, 12, make_voice_workload},
    {"federation", 1250.0, 64, make_federation_workload},
};

constexpr std::int64_t kMinChunks = 1000;  // >= 10 samples beyond the p99

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  bool correct = true;
  std::string why;
  std::int64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Resident set size now (Linux /proc/self/statm), in MB, after the
/// allocator has handed its free pages back: what the throwaway set-ups
/// and the digest check's worker threads freed stayed resident or not
/// with the heap's layout, 0.9 MB either way from run to run.
double resident_mb() {
  malloc_trim(0);
  long pages = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(statm, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(statm);
  }
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Pass {
  std::vector<double> chunk_ms;
  std::vector<double> block_ms;  ///< chunk time of each block
  std::vector<double> probe_ms;  ///< the probe run after each block
  std::uint64_t failed_chunks = 0;
  std::uint64_t violations = 0;
  Outcome outcome;
  LayerValues layer;
  bool ok = true;
  std::string why;

  /// The pass's chunk time on a quiet host, in ms: each block's wall time
  /// scaled by HostProbe::kQuietMs over the probe run right after it.
  /// Scaling block by block followed the host more closely than scaling
  /// the whole pass by the probes' mean: over ten seeds the rate spread
  /// 1.5-3.4 % against 1.7-4.9 %.
  [[nodiscard]] double quiet_ms() const {
    double quiet = 0.0;
    for (std::size_t b = 0; b < block_ms.size(); ++b) {
      quiet += block_ms[b] * HostProbe::kQuietMs / probe_ms[b];
    }
    return quiet;
  }
};

/// Runs every chunk, timing each, and the probe after every block of
/// `block_chunks`; `between(c)` runs untimed before chunk c.  The traced
/// pass audits after every chunk, the untraced one after its last only.
Pass measure(Workload& workload, Tracer& tracer, std::uint32_t run,
             std::int64_t block_chunks, HostProbe& probe,
             const std::function<void(std::int64_t)>& between) {
  Pass pass;
  const std::int64_t chunks = workload.chunks();
  pass.chunk_ms.reserve(static_cast<std::size_t>(chunks));
  double block_ms = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    between(c);
    const std::int64_t t0 = now_ns();
    {
      Span span(tracer, "bench.chunk");
      workload.run_chunk(c);
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    pass.chunk_ms.push_back(ms);
    block_ms += ms;
    if ((c + 1) % block_chunks == 0) {
      pass.block_ms.push_back(block_ms);
      pass.probe_ms.push_back(probe.run_ms());
      block_ms = 0.0;
    }
    workload.inspect(c, ms);
    if (tracer.on() || c + 1 == chunks) {
      const std::uint64_t violations = workload.audit();
      pass.violations += violations;
      pass.failed_chunks += violations > 0 ? 1 : 0;
    }
  }
  const SpanTable spans = tracer.on() ? tracer.totals(run) : SpanTable{};
  pass.ok = workload.finish(spans, pass.outcome, pass.layer, pass.why);
  if (pass.violations > 0 && pass.ok) {
    pass.ok = false;
    pass.why = "invariant audit reported violations";
  }
  return pass;
}

Report run_workload(const WorkloadDef& def, std::uint64_t seed,
                    double seconds, bool smoke, Tracer* tracer,
                    std::uint32_t run) {
  RunSpec spec;
  std::uint64_t name_hash = 14695981039346656037ULL;  // FNV-1a
  for (const char* c = def.name; *c != '\0'; ++c) {
    name_hash = (name_hash ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
  }
  spec.seed = derive_seed(seed, name_hash);
  const auto wanted = static_cast<std::int64_t>(
      std::llround(seconds * def.chunks_per_second));
  spec.chunks = std::max(smoke ? std::int64_t{1} : kMinChunks, wanted);
  spec.chunks = (spec.chunks + def.block_chunks - 1) / def.block_chunks *
                def.block_chunks;
  spec.smoke = smoke;
  const std::int64_t blocks = spec.chunks / def.block_chunks;

  Report report;
  report.workload = def.name;
  Tracer off;
  HostProbe probe;
  std::unique_ptr<Workload> workload;
  // The smoke run skips the warm-up.
  const double warmup_s = smoke ? 0.0 : kWarmupS;
  for (const std::int64_t t0 = now_ns();
       static_cast<double>(now_ns() - t0) * 1e-9 < warmup_s;) {
    workload.reset();
    workload = def.make(spec, off);
  }
  workload.reset();
  workload = def.make(spec, off);
  // Set-up sample i is a throwaway copy built before block
  // i * blocks / kSetupSamples, so the samples span the whole pass.
  // Each sample is scaled by the probe run right after it.
  std::vector<double> setup_s;
  std::size_t next_sample = 0;
  const auto sample_setup = [&](std::int64_t chunk) {
    while (next_sample < kSetupSamples &&
           static_cast<std::int64_t>(next_sample) * blocks /
                   static_cast<std::int64_t>(kSetupSamples) * def.block_chunks ==
               chunk) {
      const std::int64_t t0 = now_ns();
      std::unique_ptr<Workload> copy = def.make(spec, off);
      const double seconds_taken = static_cast<double>(now_ns() - t0) * 1e-9;
      setup_s.push_back(seconds_taken * HostProbe::kQuietMs / probe.run_ms());
      copy.reset();
      ++next_sample;
    }
  };
  const Pass plain =
      measure(*workload, off, run, def.block_chunks, probe, sample_setup);
  const double rss = resident_mb();
  workload.reset();

  report.attempted = static_cast<std::int64_t>(plain.chunk_ms.size());
  report.failed = plain.failed_chunks;
  report.correct = plain.ok;
  report.why = plain.why;
  const Outcome& o = plain.outcome;
  const double quiet_ms = plain.quiet_ms();
  const double values[] = {
      o.station_slots / (quiet_ms * 1e3),
      median(setup_s),
      rss,
      static_cast<double>(o.rt_on_time) /
          static_cast<double>(std::max<std::uint64_t>(1, o.rt_offered)),
      o.delivered / std::max(1.0, o.mac_slots),
  };
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    report.end_to_end.push_back({kEndToEnd[i].name, values[i],
                                 kEndToEnd[i].unit});
  }
  double wall_ms = 0.0;
  for (const double ms : plain.chunk_ms) wall_ms += ms;
  const double sim_rate_wall = o.station_slots / (wall_ms * 1e3);
  const double host_slowdown = wall_ms / quiet_ms;
  const double chunk_ms_p50 = nearest_rank(plain.chunk_ms, 0.50);
  const double chunk_ms_p99 = nearest_rank(plain.chunk_ms, 0.99);
  const double rt_delay_p99 = o.rt_delay.quantile(0.99);

  if (tracer != nullptr) {
    tracer->enable(run, kSpanCapacity);
    {
      Span span(*tracer, "bench.setup");
      workload = def.make(spec, *tracer);
    }
    Pass traced = measure(*workload, *tracer, run, def.block_chunks, probe,
                          [](std::int64_t) {});
    tracer->disable();
    workload.reset();
    const SpanTable spans = tracer->totals(run);
    LayerValues& layer = traced.layer;
    layer["sim_rate_wall"] = sim_rate_wall;
    layer["host.slowdown"] = host_slowdown;
    layer["chunk_ms_p50"] = chunk_ms_p50;
    layer["chunk_ms_p99"] = chunk_ms_p99;
    layer["rt_delay_p99_slots"] = rt_delay_p99;
    layer["check.invariants_us"] = mean_us(spans, "check.invariants");
    layer["check.violations"] = static_cast<double>(traced.violations);
    layer["trace.overhead_frac"] = traced.quiet_ms() / quiet_ms - 1.0;
    double span_ns = 0.0;
    for (const auto& entry : spans) {
      span_ns += static_cast<double>(entry.second.self_ns);
    }
    const std::string share = ".self_frac";
    for (const MetricDef& m : kLayer) {
      const std::string name = m.name;
      if (!name.ends_with(share)) continue;
      const std::string prefix = name.substr(0, name.size() - share.size() + 1);
      double ns = 0.0;
      for (const auto& [span, totals] : spans) {
        if (span.starts_with(prefix)) ns += static_cast<double>(totals.self_ns);
      }
      layer[name] = ns / span_ns;
    }
    for (const MetricDef& m : kLayer) {
      const auto it = layer.find(m.name);
      report.layer.push_back(
          {m.name, it == layer.end() ? 0.0 : it->second, m.unit});
    }
    for (const MetricDef& m : kDetail) {
      if (const auto it = layer.find(m.name); it != layer.end()) {
        report.detail.push_back({m.name, it->second, m.unit});
      }
    }
    for (const auto& entry : layer) {
      const auto listed = [&](const MetricDef& m) {
        return entry.first == m.name;
      };
      if (std::none_of(std::begin(kLayer), std::end(kLayer), listed) &&
          std::none_of(std::begin(kDetail), std::end(kDetail), listed)) {
        throw std::logic_error("unlisted per-layer metric " + entry.first);
      }
    }
    report.failed += traced.failed_chunks;
    if (report.correct && !traced.ok) {
      report.correct = false;
      report.why = traced.why;
    }
  }
  return report;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::logic_error("non-finite metric");
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int run_main(int argc, char** argv) {
  util::Args args(argc, argv);
  const std::string only = args.get_string("workload", "");
  const std::int64_t seed_arg = args.get_int("seed", 1);
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool smoke = args.has("smoke");
  const double seconds = args.get_double("seconds", smoke ? 0.2 : 10.0);
  const std::string trace_path = args.get_string("trace", "");
  (void)args.get_string("json-dir", "");
  if (!args.unknown_flags().empty() || !(seconds > 0.0) || seed_arg < 0) {
    std::cerr << "usage: wrt_bench [--workload NAME] [--seed N>=0] "
                 "[--seconds S>0] [--trace=FILE] [--smoke] [--json-dir=DIR]\n";
    return 2;
  }

  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& def : kWorkloads) {
    if (only.empty() || only == def.name) selected.push_back(&def);
  }
  if (selected.empty()) {
    std::cerr << "wrt_bench: unknown workload '" << only << "'\n";
    return 2;
  }

  bench::Reporter reporter("e2e", argc, argv);
  reporter.seed(seed);
  Tracer tracer;
  Tracer* traced = trace_path.empty() ? nullptr : &tracer;
  std::vector<Report> reports;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    reports.push_back(run_workload(*selected[i], seed, seconds, smoke, traced,
                                   static_cast<std::uint32_t>(i)));
  }
  if (traced != nullptr) {
    if (!tracer.write_chrome(trace_path)) {
      std::cerr << "wrt_bench: cannot write " << trace_path << '\n';
      return 1;
    }
    std::cerr << "wrt_bench: " << tracer.size() << " spans ("
              << tracer.dropped() << " dropped) -> " << trace_path << '\n';
  }

  bool correct = true;
  std::int64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics_json;
  for (const Report& report : reports) {
    correct = correct && report.correct;
    attempted += report.attempted;
    failed += report.failed;
    if (!report.correct) {
      std::cout << "FAIL " << report.workload << ": " << report.why << '\n';
    }
    for (const auto* list :
         {&report.end_to_end, &report.layer, &report.detail}) {
      for (const Metric& m : *list) {
        std::printf("metric %-15s %-32s %22.6f %s\n", report.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
        reporter.metric(report.workload + "." + m.name, m.value, m.unit);
      }
    }
    // The result line carries the end-to-end metrics of an untraced run,
    // the per-layer ones of a traced run; with several workloads each name
    // is prefixed by its workload.
    const std::vector<Metric>& shown =
        traced != nullptr ? report.layer : report.end_to_end;
    for (const Metric& m : shown) {
      const std::string key =
          reports.size() == 1 ? m.name : report.workload + "." + m.name;
      metrics_json += (metrics_json.empty() ? "" : ", ") + ("\"" + key) +
                      "\": {\"value\": " + json_number(m.value) +
                      ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics_json << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wrt::e2e

int main(int argc, char** argv) {
  try {
    return wrt::e2e::run_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "wrt_bench: " << error.what() << '\n';
    return 1;
  }
}
