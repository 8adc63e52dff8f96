// Fixture: a bounded history trimmed by front erase in a hot-path file
// (1 finding — the positional erase below it is not a front erase).
#include <vector>
namespace fixture {
void record(std::vector<long>& history, long arrival) {
  history.push_back(arrival);
  if (history.size() > 64) history.erase(history.begin());
}
void drop_at(std::vector<long>& history, long at) {
  history.erase(history.begin() + at);
}
}  // namespace fixture
