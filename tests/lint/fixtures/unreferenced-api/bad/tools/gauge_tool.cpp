// Fixture: a tool's call is a use.
#include "../src/gauge.hpp"
int main() { return fixture::gauge_reading(fixture::Gauge{}); }
