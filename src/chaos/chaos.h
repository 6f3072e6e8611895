// Deterministic chaos harness (DESIGN.md §10): FoundationDB-style
// simulation testing for the fault subsystem, the elastic and
// bounded-staleness engines, and the serving plane.
//
// A Scenario draws a randomized fault schedule from a seed, runs it, and
// checks its invariants. Five scenarios exist:
//
//   train       crashes, lossy wire, partitions, stragglers and damaged
//               checkpoints against every training engine;
//   membership  scripted grow/shrink/crash against block-replicated
//               elastic engines (DESIGN.md §14);
//   ssp         slack, jitter and stragglers against the bounded-staleness
//               engines (DESIGN.md §15);
//   serving     shard failures and (possibly bit-rotted) hot swaps under
//               load on one serving frontend (DESIGN.md §13);
//   serving_fleet  whole-group losses, sibling shard failures, swaps and
//               flash crowds against the replicated fleet (DESIGN.md §17).
//
// Because the simulator is single-threaded and every draw is a stateless
// hash of the seed, a schedule replays bit-identically. One driver
// (RunChaos, the colsgd_chaos CLI) sweeps seeds the same way for every
// scenario: it runs each schedule twice and compares fingerprints, shrinks
// a failing schedule by disabling its named components, and prints a repro
// command rendered from the scenario's flag registration.
#ifndef COLSGD_CHAOS_CHAOS_H_
#define COLSGD_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"

namespace colsgd {

class ModelSpec;

namespace chaos {

/// \brief Verdict of one schedule run.
struct Verdict {
  bool completed = false;
  /// Status of a run that did not complete.
  std::string diagnosis;
  /// Invariant violations; empty means the run passed.
  std::vector<std::string> violations;
  /// Hash of the run's canonical outputs. Two runs of the same schedule
  /// must agree bit-for-bit.
  uint64_t fingerprint = 0;
  /// Named numbers the repro artifact records (losses, counters).
  std::vector<std::pair<std::string, double>> metrics;

  bool ok() const { return violations.empty(); }
};

/// \brief Components of a schedule that are switched off.
using Disabled = std::set<std::string>;

/// \brief One chaos scenario. Its schedule is a pure function of the seed
/// and the configuration (flags, engine, model), minus the disabled
/// components.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// \brief Registers every flag the scenario reads. The registered values
  /// are the scenario's only defaults, and the driver renders repro
  /// commands from them.
  virtual void AddFlags(FlagParser* flags) = 0;
  /// \brief The engines the scenario supports (what --engines all means);
  /// empty when it takes no --engines.
  virtual std::vector<std::string> Engines() const { return {}; }
  /// \brief Rejects, before any seed runs, a configuration the scenario
  /// cannot run: a flag value out of range, or a model or one of the
  /// selected `engines` it cannot use.
  virtual Status Validate(const ModelSpec& /*model*/,
                          const std::vector<std::string>& /*engines*/) const {
    return Status::OK();
  }
  /// \brief Builds the per-configuration state (dataset, fault-free
  /// yardstick) once before a configuration's seeds run. Returns a
  /// one-line summary of the yardstick, or "".
  virtual std::string Prepare(const std::string& engine,
                              const std::string& model) = 0;
  /// \brief Names of the independently disableable components of the
  /// schedule drawn from `seed` (each crash, wire fault, swap, ...).
  virtual std::vector<std::string> Components(uint64_t seed) const = 0;
  /// \brief Runs the schedule minus `disabled` and checks the invariants.
  virtual Verdict Run(uint64_t seed, const Disabled& disabled) const = 0;
  /// \brief One-line summary of the schedule minus `disabled`.
  virtual std::string Describe(uint64_t seed,
                               const Disabled& disabled) const = 0;
};

/// \brief "train", "membership", "ssp", "serving" or "serving_fleet";
/// nullptr for any other name.
std::unique_ptr<Scenario> MakeScenario(const std::string& name);

/// \brief Greedy ddmin-style minimization of a failing schedule: disables
/// every component whose removal keeps the run failing. `runs` (optional)
/// counts the runs spent.
Disabled Shrink(const Scenario& scenario, uint64_t seed, int* runs);

using ScenarioFactory =
    std::function<std::unique_ptr<Scenario>(const std::string& name)>;

/// \brief The colsgd_chaos command line. Returns the exit status: 0 when
/// every seed passes, 1 when one fails, 2 for a bad invocation. `make`
/// builds the scenario --scenario names (tests substitute fakes).
int RunChaos(int argc, char** argv,
             const ScenarioFactory& make = MakeScenario);

}  // namespace chaos
}  // namespace colsgd

#endif  // COLSGD_CHAOS_CHAOS_H_
