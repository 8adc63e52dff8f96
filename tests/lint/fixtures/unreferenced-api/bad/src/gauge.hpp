// Fixture: a header under src/ that declares one function, one type and
// one k-constant nothing uses (3 findings), beside names that a tool or a
// test uses.
#pragma once
namespace fixture {
struct Gauge {
  int level = 0;
};
constexpr int kGaugeLimit = 8;
constexpr int kGaugeSpare = 4;
int gauge_reading(const Gauge& gauge);
int gauge_drift(const Gauge& gauge);
struct GaugeMemo {};
}  // namespace fixture
