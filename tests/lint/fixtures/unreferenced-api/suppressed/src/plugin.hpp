// Fixture: a hook that a loader calls by name, with a justified
// suppression.
#pragma once
namespace fixture {
// wrt-lint-allow(unreferenced-api): fixture — the plugin loader looks this symbol up by name
int fixture_plugin_entry();
}  // namespace fixture
