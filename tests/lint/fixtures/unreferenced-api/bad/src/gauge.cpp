// Fixture: an out-of-line definition names a function without using it.
#include "gauge.hpp"
namespace fixture {
int gauge_reading(const Gauge& gauge) { return gauge.level; }
int gauge_drift(const Gauge& gauge) { return gauge.level - 1; }
}  // namespace fixture
