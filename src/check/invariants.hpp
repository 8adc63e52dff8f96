// Runtime protocol-invariant auditor.
//
// The engine hot path is position-indexed, with documented structural
// invariants (dense vectors in lockstep with the ring order, a
// NodeId->position bijection, one SAT, the RAP mutex, per-round quotas,
// frame conservation); the paper's Section 2.6 worst-case analysis
// additionally gives *analytic oracles* — Theorem 1 (Eq 1) bounds every
// SAT rotation, Theorem 2 (Eq 3) every n-rotation span — that any correct
// simulation run must satisfy in fault-free stretches.  The auditor runs
// both against a live Engine as a registry of named, individually
// reportable checks, in this order:
//
//   1-10  the engine's ten structural checks, ring-lockstep through
//         revertive_position_restored — Engine::kInvariantChecks, defined
//         once in src/wrtring/invariants.cpp, the same table
//         Engine::check_invariants() walks
//   11    theorem1-oracle  observed SAT inter-arrival < Eq (1) bound
//                          (strict)
//   12    theorem2-oracle  every window of 4 rotations <= Eq (3) bound
//
// Unlike check_invariants(), which stops at the first violation, run()
// tallies every violation of every check.  The analytic oracles self-gate
// on "disturbances": a membership change, SAT loss, rebuild, or quota
// renegotiation invalidates history collected under the previous ring
// parameters, so only arrival spans recorded entirely after the most
// recent disturbance are compared against the bounds of the current ring.
// This is what lets the auditor run clean over churn-heavy scenarios while
// still catching genuine bound breaches.
//
// Wiring: construct over an Engine and either call run() manually (tests,
// monkey harnesses) or install() it so the engine invokes it after every
// membership event and — in audit builds (WRT_AUDIT_LEVEL, util/audit.hpp)
// — every K slots.  Release builds compile the periodic hook out entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace wrt::wrtring {
class Engine;
}  // namespace wrt::wrtring

namespace wrt::check {

/// One failed check instance.
struct Violation {
  std::string check;   ///< registry name, e.g. "position-bijection"
  std::string detail;  ///< human-readable specifics
  Tick at = 0;         ///< engine time when detected
  std::string event;   ///< audit trigger ("periodic", "join", "manual", ...)
};

struct AuditOptions {
  /// Run the Theorem 1/2 analytic oracles (disable for scenarios that are
  /// deliberately outside the paper's fault-free assumptions).
  bool theorem_oracles = true;
};

/// Per-check tally, exposed for reports and test assertions.
struct CheckStats {
  std::string name;
  std::uint64_t runs = 0;
  std::uint64_t violations = 0;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const wrtring::Engine& engine,
                            AuditOptions options = {});

  /// Runs every registered check once; returns the number of violations
  /// found by *this* run (the first 256 over the auditor's life are also
  /// recorded).
  std::size_t run(const char* event = "manual");

  /// Attaches this auditor to `engine` (must be the audited engine):
  /// membership events always trigger run(); in audit builds the engine
  /// additionally calls it every `every_k_slots` slots (0 = never).
  void install(wrtring::Engine& engine, std::int64_t every_k_slots = 0);

  [[nodiscard]] bool clean() const noexcept { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t audits_run() const noexcept { return audits_; }
  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Violations recorded by the named check so far.
  [[nodiscard]] std::uint64_t violation_count(const std::string& check) const;
  /// Tally for every registered check, registry order.
  [[nodiscard]] std::vector<CheckStats> check_stats() const;
  /// Registry names, in execution order.
  [[nodiscard]] static std::vector<std::string> check_names();

 private:
  // Each oracle appends one detail string per violation found.
  using Details = std::vector<std::string>;
  void check_theorem1_oracle(Details& out) const;
  void check_theorem2_oracle(Details& out) const;

  /// Detects ring-parameter / fault disturbances and advances the oracle
  /// horizon past history the current bounds do not cover.
  void observe_disturbances();

  const wrtring::Engine& engine_;
  AuditOptions options_;

  std::uint64_t audits_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<Violation> violations_;
  std::vector<CheckStats> stats_;  ///< one per check, registry order

  // Oracle gating state (see observe_disturbances()).
  Tick oracle_horizon_ = 0;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t last_losses_ = 0;
  std::uint64_t last_rebuilds_ = 0;
  std::uint64_t last_recoveries_ = 0;
  std::int64_t last_bound_ = 0;
  std::size_t last_ring_size_ = 0;
};

}  // namespace wrt::check
