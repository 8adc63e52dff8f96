// Fixture: the same front erase, silenced on its line.
#include <vector>
namespace fixture {
void record(std::vector<long>& history, long arrival) {
  history.push_back(arrival);
  // wrt-lint-allow(hot-path-front-erase): fixture — runs once per re-formation, not per slot
  if (history.size() > 64) history.erase(history.begin());
}
}  // namespace fixture
