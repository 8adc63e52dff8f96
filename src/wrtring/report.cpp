#include "wrtring/report.hpp"

#include "analysis/bounds.hpp"

namespace wrt::wrtring {

namespace {

void add_class_rows(util::Table& table, const traffic::Sink& sink) {
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kAssured,
        TrafficClass::kBestEffort}) {
    const auto& stats = sink.by_class(cls);
    if (stats.delivered == 0 && stats.dropped == 0) continue;
    table.add_row({to_string(cls),
                   static_cast<std::int64_t>(stats.delivered),
                   stats.delay_slots.mean(), stats.delay_slots.max(),
                   stats.delay_slots.count() > 0
                       ? stats.delay_slots.quantile(0.99)
                       : 0.0,
                   static_cast<std::int64_t>(stats.deadline_misses),
                   static_cast<std::int64_t>(stats.dropped)});
  }
}

}  // namespace

util::Table guarantee_report(const Engine& engine) {
  util::Table table("guarantees in force",
                    {"station", "ring position", "l", "k",
                     "Theorem-3 wait bound (x=0)"});
  const analysis::RingParams params = engine.ring_params();
  for (std::size_t p = 0; p < engine.virtual_ring().size(); ++p) {
    const NodeId node = engine.virtual_ring().station_at(p);
    const Quota quota = engine.station_quota(node);
    table.add_row({static_cast<std::int64_t>(node),
                   static_cast<std::int64_t>(p),
                   static_cast<std::int64_t>(quota.l),
                   static_cast<std::int64_t>(quota.k),
                   quota.l > 0 ? analysis::access_time_bound(params, p, 0)
                               : std::int64_t{-1}});
  }
  return table;
}

util::Table traffic_report(const Engine& engine) {
  util::Table table("per-class delivery (WRT-Ring)",
                    {"class", "delivered", "mean delay", "max delay",
                     "p99 delay", "deadline misses", "dropped"});
  add_class_rows(table, engine.stats().sink);
  return table;
}

util::Table traffic_report(const tpt::TptEngine& engine) {
  util::Table table("per-class delivery (TPT)",
                    {"class", "delivered", "mean delay", "max delay",
                     "p99 delay", "deadline misses", "dropped"});
  add_class_rows(table, engine.stats().sink);
  return table;
}

util::Table resilience_report(const Engine& engine) {
  util::Table table("resilience history",
                    {"event", "count", "latency mean (slots)",
                     "latency max (slots)"});
  const EngineStats& stats = engine.stats();
  table.add_row({std::string("SAT losses detected"),
                 static_cast<std::int64_t>(stats.sat_losses_detected),
                 stats.sat_loss_detection_slots.mean(),
                 stats.sat_loss_detection_slots.count() > 0
                     ? stats.sat_loss_detection_slots.max()
                     : 0.0});
  table.add_row({std::string("cut-out recoveries"),
                 static_cast<std::int64_t>(stats.sat_recoveries),
                 stats.recovery_total_slots.mean(),
                 stats.recovery_total_slots.count() > 0
                     ? stats.recovery_total_slots.max()
                     : 0.0});
  table.add_row({std::string("ring re-formations"),
                 static_cast<std::int64_t>(stats.ring_rebuilds), 0.0, 0.0});
  table.add_row({std::string("joins completed"),
                 static_cast<std::int64_t>(stats.joins_completed),
                 stats.join_latency_slots.mean(),
                 stats.join_latency_slots.count() > 0
                     ? stats.join_latency_slots.max()
                     : 0.0});
  table.add_row({std::string("joins rejected"),
                 static_cast<std::int64_t>(stats.joins_rejected), 0.0, 0.0});
  table.add_row({std::string("control messages lost"),
                 static_cast<std::int64_t>(stats.control_messages_lost), 0.0,
                 0.0});
  table.add_row({std::string("join retries (backoff)"),
                 static_cast<std::int64_t>(stats.join_retries), 0.0, 0.0});
  table.add_row({std::string("joins abandoned"),
                 static_cast<std::int64_t>(stats.joins_abandoned), 0.0, 0.0});
  table.add_row({std::string("frames lost (links)"),
                 static_cast<std::int64_t>(stats.frames_lost_link), 0.0, 0.0});
  table.add_row({std::string("frames lost (teardowns)"),
                 static_cast<std::int64_t>(stats.frames_lost_rebuild), 0.0,
                 0.0});
  table.add_row({std::string("frames lost (join churn)"),
                 static_cast<std::int64_t>(stats.frames_lost_churn), 0.0,
                 0.0});
  table.add_row({std::string("graceful leaves"),
                 static_cast<std::int64_t>(stats.leaves_completed), 0.0,
                 0.0});
  table.add_row({std::string("SAT seizures"),
                 static_cast<std::int64_t>(stats.sat_hold_slots.count()),
                 stats.sat_hold_slots.mean(),
                 stats.sat_hold_slots.count() > 0
                     ? stats.sat_hold_slots.max()
                     : 0.0});
  return table;
}

}  // namespace wrt::wrtring
