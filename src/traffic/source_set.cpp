#include "traffic/source_set.hpp"

#include <algorithm>

namespace wrt::traffic {

void SourceSet::add_source(const FlowSpec& spec) {
  const auto key = static_cast<std::uint32_t>(sources_.size());
  sources_.emplace_back(spec,
                        seed_ ^ static_cast<std::uint32_t>(salt_ + spec.id));
  schedule(sources_.back().next_arrival(), key);
}

void SourceSet::add_saturated_source(const FlowSpec& spec,
                                     std::size_t backlog) {
  if (spec.src >= bound_at_.size()) bound_at_.resize(spec.src + 1, -1);
  if (bound_at_[spec.src] >= 0) {
    shared_station_ = true;
  } else {
    bound_at_[spec.src] = static_cast<std::int32_t>(saturated_.size());
  }
  saturated_.push_back(
      {SaturatedSource(spec), std::min(backlog, queue_capacity_)});
  full_pass_pending_ = true;
}

void SourceSet::add_trace_source(Trace trace, FlowId flow, NodeId src,
                                 NodeId dst, std::int64_t deadline_slots) {
  const auto key = static_cast<std::uint32_t>(traces_.size()) | kTraceBit;
  traces_.emplace_back(std::move(trace), flow, src, dst, deadline_slots);
  schedule(traces_.back().next_arrival(), key);
}

}  // namespace wrt::traffic
