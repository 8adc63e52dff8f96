// voice-mobile: repeated E16 mobility cells.  Each episode places 32
// two-party voice calls on 16 pedestrian (Gauss–Markov) stations for 10k
// slots and offers the same calls to WRT-Ring (behind Theorem-3 call
// admission), TPT and slotted Aloha; every call is scored with the E-model.
// Chunk 3e + m runs MAC m of episode e: build it, drive it, score it.  The
// set-up the driver times is episode 0's fleet plus its three MACs.
// E16's cells last 30k slots; at that length 1,000 chunks take 21 s on the
// reference host, and the per-slot cost grows with the episode as the
// baselines' queues do.
#include <algorithm>
#include <stdexcept>

#include "aloha/engine.hpp"
#include "app/call_admission.hpp"
#include "app/voice_call.hpp"
#include "phy/mobility.hpp"
#include "tpt/engine.hpp"
#include "workload.hpp"
#include "wrtring/admission.hpp"
#include "wrtring/engine.hpp"

namespace wrt::e2e {
namespace {

constexpr std::size_t kStations = 16;
constexpr std::size_t kCalls = 32;
constexpr std::int64_t kEpisodeSlots = 10000;
constexpr std::int64_t kMobilityPeriod = 250;
constexpr double kMobilitySpeed = 1.5;  // m/s
constexpr std::int64_t kMacs = 3;

enum Stream : std::uint64_t { kFleet = 11, kMobility = 12, kEngine = 13 };

phy::Topology voice_room() {
  return phy::Topology(phy::placement::circle(kStations, 10.0, {20.0, 20.0}),
                       phy::RadioParams{30.0, 0.0});
}

struct WrtCell {
  phy::Topology topology = voice_room();
  std::unique_ptr<wrtring::Engine> engine;
  std::unique_ptr<wrtring::AdmissionController> controller;
  std::unique_ptr<app::CallAdmission> admission;
};

struct TptCell {
  phy::Topology topology = voice_room();
  std::unique_ptr<tpt::TptEngine> engine;
};

struct AlohaCell {
  phy::Topology topology = voice_room();
  std::unique_ptr<aloha::AlohaEngine> engine;
};

/// E16's TPT sizing: each station's synchronous budget covers the calls it
/// sources, and TTRT covers the token walk plus the booked budget.
tpt::TptConfig tpt_config(const app::VoiceFleet& fleet) {
  tpt::TptConfig config;
  std::vector<std::size_t> calls_at(kStations, 0);
  for (const app::VoiceCall& call : fleet.calls()) ++calls_at[call.src];
  config.h_sync.assign(kStations, 1);
  std::int64_t booked = 0;
  for (std::size_t node = 0; node < kStations; ++node) {
    if (calls_at[node] > 0) {
      config.h_sync[node] = static_cast<std::int64_t>(
          std::min<std::size_t>(8 * calls_at[node], 16));
    }
    booked += config.h_sync[node];
  }
  config.ttrt_slots =
      2 * (static_cast<std::int64_t>(kStations) - 1) + booked + 20;
  return config;
}

class VoiceWorkload final : public Workload {
 public:
  VoiceWorkload(const RunSpec& spec, Tracer& tracer)
      : tracer_(tracer), seed_(spec.seed), chunks_(spec.chunks) {
    build_fleet(0);
    build_wrt(0);
    build_tpt(0);
    build_aloha(0);
  }

  VoiceWorkload(const VoiceWorkload&) = delete;
  VoiceWorkload& operator=(const VoiceWorkload&) = delete;

  [[nodiscard]] std::int64_t chunks() const override { return chunks_; }

  void run_chunk(std::int64_t chunk) override {
    const std::int64_t episode = chunk / kMacs;
    last_mac_ = chunk % kMacs;
    if (fleet_episode_ != episode) build_fleet(episode);
    const std::uint64_t mobility_seed =
        derive_seed(seed_, kMobility, static_cast<std::uint64_t>(episode));
    switch (last_mac_) {
      case 0: {
        if (wrt_episode_ != episode) build_wrt(episode);
        drive(*wrt_->engine, wrt_->topology, mobility_seed,
              "wrtring.run_slots");
        const wrtring::EngineStats& stats = wrt_->engine->stats();
        wrt_ok_ += score(stats.sink);
        delivered_ += static_cast<double>(stats.sink.total_delivered());
        wrt_data_tx_ += static_cast<double>(stats.data_transmissions);
        wrt_delivered_ += static_cast<double>(stats.sink.total_delivered());
        wrt_transit_ += static_cast<double>(stats.transit_forwards);
        wrt_sat_rounds_ += static_cast<double>(stats.sat_rounds);
        wrt_lost_ += static_cast<double>(
            stats.frames_lost_link + stats.frames_lost_rebuild +
            stats.frames_lost_churn + stats.frames_dropped_stale);
        wrt_recoveries_ += static_cast<double>(stats.sat_recoveries);
        wrt_rebuilds_ += static_cast<double>(stats.ring_rebuilds);
        wrt_joins_ += static_cast<double>(stats.joins_completed);
        wrt_join_retries_ += static_cast<double>(stats.join_retries);
        ++episodes_;
        break;
      }
      case 1: {
        if (tpt_episode_ != episode) build_tpt(episode);
        drive(*tpt_->engine, tpt_->topology, mobility_seed, "tpt.run_slots");
        tpt_ok_ += score(tpt_->engine->stats().sink);
        delivered_ +=
            static_cast<double>(tpt_->engine->stats().sink.total_delivered());
        break;
      }
      default: {
        if (aloha_episode_ != episode) build_aloha(episode);
        drive(*aloha_->engine, aloha_->topology, mobility_seed,
              "aloha.run_slots");
        const aloha::AlohaStats& stats = aloha_->engine->stats();
        aloha_ok_ += score(stats.sink);
        delivered_ += static_cast<double>(stats.sink.total_delivered());
        aloha_tx_ += static_cast<double>(stats.transmissions);
        aloha_success_ += static_cast<double>(stats.successes);
        aloha_collided_ += static_cast<double>(stats.collided_frames);
        aloha_retry_drops_ += static_cast<double>(stats.retry_drops);
        break;
      }
    }
    mac_slots_ += static_cast<double>(kEpisodeSlots);
  }

  [[nodiscard]] std::uint64_t audit() override {
    Span span(tracer_, "check.invariants");
    util::Status status = util::Status::success();
    switch (last_mac_) {
      case 0: status = wrt_->engine->check_invariants(); break;
      case 1: status = tpt_->engine->check_invariants(); break;
      default: status = aloha_->engine->check_invariants(); break;
    }
    return status.ok() ? 0 : 1;
  }

  [[nodiscard]] bool finish(const SpanTable& spans, Outcome& outcome,
                            LayerValues& layer, std::string& why) override {
    const double episodes = std::max(1.0, static_cast<double>(episodes_));
    const double mac_station_slots =
        episodes * static_cast<double>(kEpisodeSlots * kStations);
    outcome.rt_offered = episodes_ * kCalls;
    outcome.rt_on_time = wrt_ok_;
    outcome.rt_delay = delays_;
    outcome.delivered = delivered_;
    outcome.mac_slots = mac_slots_;
    outcome.station_slots = mac_slots_ * static_cast<double>(kStations);

    layer["wrtring.ns_per_station_slot"] =
        self_ns(spans, {"wrtring.run_slots"}) / mac_station_slots;
    layer["tpt.ns_per_station_slot"] =
        self_ns(spans, {"tpt.run_slots"}) / mac_station_slots;
    layer["aloha.ns_per_station_slot"] =
        self_ns(spans, {"aloha.run_slots"}) / mac_station_slots;
    layer["phy.mobility_us"] = mean_us(spans, "phy.mobility");
    layer["wrtring.init_ms"] = mean_us(spans, "wrtring.init") * 1e-3;
    layer["traffic.attach_ms"] = mean_us(spans, "traffic.attach") * 1e-3;
    layer["app.fleet_build_ms"] = mean_us(spans, "app.fleet_build") * 1e-3;
    layer["app.score_ms"] = mean_us(spans, "app.score") * 1e-3;
    if (const auto it = spans.find("app.admit"); it != spans.end()) {
      std::vector<double> admit = it->second.durations_us;
      std::sort(admit.begin(), admit.end());
      const auto rank = [&](double q) {
        const auto i = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(admit.size())));
        return admit[std::max<std::size_t>(i, 1) - 1];
      };
      layer["app.admit_us_p50"] = rank(0.5);
      layer["app.admit_us_p99"] = rank(0.99);
    }
    layer["app.admit_ratio"] =
        static_cast<double>(admitted_) / static_cast<double>(offered_);
    layer["app.calls_ok"] = static_cast<double>(wrt_ok_) / episodes;
    layer["tpt.calls_ok"] = static_cast<double>(tpt_ok_) / episodes;
    layer["aloha.calls_ok"] = static_cast<double>(aloha_ok_) / episodes;
    layer["aloha.success_ratio"] = aloha_success_ / std::max(1.0, aloha_tx_);
    layer["aloha.collided_frames"] = aloha_collided_;
    layer["aloha.retry_drops"] = aloha_retry_drops_;
    layer["wrtring.data_tx"] = wrt_data_tx_;
    layer["wrtring.delivered"] = wrt_delivered_;
    layer["wrtring.delivery_ratio"] =
        wrt_delivered_ / std::max(1.0, wrt_data_tx_);
    layer["wrtring.transit_per_delivery"] =
        wrt_transit_ / std::max(1.0, wrt_delivered_);
    layer["wrtring.sat_rounds"] = wrt_sat_rounds_;
    layer["wrtring.frames_lost"] = wrt_lost_;
    layer["wrtring.recoveries"] = wrt_recoveries_;
    layer["wrtring.rebuilds"] = wrt_rebuilds_;
    layer["wrtring.joins"] = wrt_joins_;
    layer["wrtring.join_retries"] = wrt_join_retries_;

    if (chunks_ % kMacs != 0) {
      why = "voice-mobile needs whole episodes (chunks divisible by 3)";
      return false;
    }
    if (wrt_ok_ > admitted_ || admitted_ > offered_) {
      why = "more compliant WRT calls than admitted, or admitted than offered";
      return false;
    }
    return true;
  }

 private:
  void build_fleet(std::int64_t episode) {
    Span span(tracer_, "app.fleet_build");
    fleet_ = std::make_unique<app::VoiceFleet>(
        kCalls, kStations, slots_to_ticks(kEpisodeSlots),
        derive_seed(seed_, kFleet, static_cast<std::uint64_t>(episode)));
    fleet_episode_ = episode;
  }

  std::uint64_t engine_seed(std::int64_t episode) const {
    return derive_seed(seed_, kEngine, static_cast<std::uint64_t>(episode));
  }

  void build_wrt(std::int64_t episode) {
    wrt_.reset();
    wrt_ = std::make_unique<WrtCell>();
    // E16's mobility regime: RAP so cut-out stations can rejoin, at one
    // RAP every ~3 rounds so the voice quota absorbs it.
    wrtring::Config config;
    config.rap_policy = wrtring::RapPolicy::kRotating;
    config.auto_rejoin = true;
    config.s_round_min = static_cast<std::int64_t>(3 * kStations);
    wrt_->engine = std::make_unique<wrtring::Engine>(&wrt_->topology, config,
                                                     engine_seed(episode));
    {
      Span span(tracer_, "wrtring.init");
      if (!wrt_->engine->init().ok()) {
        throw std::runtime_error("voice WRT init failed");
      }
    }
    wrt_->controller = std::make_unique<wrtring::AdmissionController>(
        wrt_->engine.get(), analysis::AllocationScheme::kProportional,
        static_cast<std::int64_t>(kStations), 1);
    wrt_->admission = std::make_unique<app::CallAdmission>(
        wrt_->controller.get(), kStations / 2 + 2);
    for (const app::VoiceCall& call : fleet_->calls()) {
      Span span(tracer_, "app.admit");
      admitted_ += wrt_->admission->offer(call, fleet_->params()) ? 1U : 0U;
      ++offered_;
    }
    {
      Span span(tracer_, "traffic.attach");
      const app::CallAdmission& admission = *wrt_->admission;
      fleet_->attach_if(*wrt_->engine, [&admission](FlowId flow) {
        return admission.is_admitted(flow);
      });
    }
    wrt_->engine->set_delivery_tap(
        [this](const traffic::Packet& packet, NodeId, Tick now) {
          if (packet.cls == TrafficClass::kRealTime) {
            delays_.add(ticks_to_slots(now - packet.created));
          }
        });
    wrt_episode_ = episode;
  }

  void build_tpt(std::int64_t episode) {
    tpt_.reset();
    tpt_ = std::make_unique<TptCell>();
    tpt_->engine = std::make_unique<tpt::TptEngine>(
        &tpt_->topology, tpt_config(*fleet_), engine_seed(episode));
    {
      Span span(tracer_, "tpt.init");
      if (!tpt_->engine->init().ok()) {
        throw std::runtime_error("voice TPT init failed");
      }
    }
    Span span(tracer_, "traffic.attach");
    fleet_->attach(*tpt_->engine);
    tpt_episode_ = episode;
  }

  void build_aloha(std::int64_t episode) {
    aloha_.reset();
    aloha_ = std::make_unique<AlohaCell>();
    aloha_->engine = std::make_unique<aloha::AlohaEngine>(
        &aloha_->topology, aloha::AlohaConfig{}, engine_seed(episode));
    {
      Span span(tracer_, "aloha.init");
      if (!aloha_->engine->init().ok()) {
        throw std::runtime_error("voice Aloha init failed");
      }
    }
    Span span(tracer_, "traffic.attach");
    fleet_->attach(*aloha_->engine);
    aloha_episode_ = episode;
  }

  /// Same Gauss–Markov trajectory for every MAC of an episode.
  template <typename Mac>
  void drive(Mac& mac, phy::Topology& topology, std::uint64_t mobility_seed,
             const char* run_span) {
    phy::GaussMarkovParams params;
    params.mean_speed = kMobilitySpeed;
    params.slot_seconds = 1e-3;
    phy::GaussMarkov mobility(phy::Rect{{0, 0}, {40, 40}}, params,
                              mobility_seed);
    for (std::int64_t slot = 0; slot < kEpisodeSlots;
         slot += kMobilityPeriod) {
      {
        Span span(tracer_, "phy.mobility");
        mobility.step(topology, mac.now(), slots_to_ticks(kMobilityPeriod));
      }
      Span span(tracer_, run_span);
      mac.run_slots(kMobilityPeriod);
    }
  }

  std::uint64_t score(const traffic::Sink& sink) {
    Span span(tracer_, "app.score");
    return app::compliant_calls(app::score_fleet(*fleet_, sink),
                                fleet_->params().mos_threshold);
  }

  Tracer& tracer_;
  std::uint64_t seed_;
  std::int64_t chunks_;

  std::unique_ptr<app::VoiceFleet> fleet_;
  std::unique_ptr<WrtCell> wrt_;
  std::unique_ptr<TptCell> tpt_;
  std::unique_ptr<AlohaCell> aloha_;
  std::int64_t fleet_episode_ = -1;
  std::int64_t wrt_episode_ = -1;
  std::int64_t tpt_episode_ = -1;
  std::int64_t aloha_episode_ = -1;
  std::int64_t last_mac_ = 0;

  std::uint64_t episodes_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t wrt_ok_ = 0;
  std::uint64_t tpt_ok_ = 0;
  std::uint64_t aloha_ok_ = 0;
  DelayHistogram delays_;
  double delivered_ = 0.0;
  double mac_slots_ = 0.0;
  double wrt_data_tx_ = 0.0;
  double wrt_delivered_ = 0.0;
  double wrt_transit_ = 0.0;
  double wrt_sat_rounds_ = 0.0;
  double wrt_lost_ = 0.0;
  double wrt_recoveries_ = 0.0;
  double wrt_rebuilds_ = 0.0;
  double wrt_joins_ = 0.0;
  double wrt_join_retries_ = 0.0;
  double aloha_tx_ = 0.0;
  double aloha_success_ = 0.0;
  double aloha_collided_ = 0.0;
  double aloha_retry_drops_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_voice_workload(const RunSpec& spec,
                                              Tracer& tracer) {
  return std::make_unique<VoiceWorkload>(spec, tracer);
}

}  // namespace wrt::e2e
