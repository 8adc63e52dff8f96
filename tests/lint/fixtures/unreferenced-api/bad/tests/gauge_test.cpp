// Fixture: a use in tests/ counts, and no rule reports in tests/ (outside
// it, this mutable global would be a mutable-global-state finding).
#include "../src/gauge.hpp"
int g_gauge_checks = fixture::kGaugeLimit;
