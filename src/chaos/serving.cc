// The serving scenarios (DESIGN.md §13, §17). serving drives the single
// frontend (a fleet of one group with routing off); serving_fleet drives
// R in {2, 3} shard groups behind the health-routed, hedging router, adding
// whole-group losses and flash crowds. Both check one set of invariants:
//
//   1. clean completion: the run finishes with Status::OK;
//   2. conservation: completed + rejected + timed_out == offered;
//   3. swap images: the swaps that fired split into valid images, each
//      installed as the next generation on every group, and bit-rotted
//      ones, each rejected with nothing installed — checked position by
//      position against every group's generation history;
//   4. no wrong answers: every completed response is bitwise equal to the
//      offline kernel's score for its row under the one generation it
//      reports, whichever group, hedge or re-dispatch produced it;
//   5. bounded degradation: timeouts stay within failures * max_batch for
//      one group and at zero with a survivor group, and the SLO-violation
//      fraction stays within the degradation budget per fault of the
//      fault-free run on the same arrivals.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "chaos/scenarios.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/model_io.h"
#include "serve/fleet.h"

namespace colsgd {
namespace chaos {
namespace {

constexpr uint64_t kDataSeed = 42;

struct Fault {
  double time = 0.0;
  int group = 0;
  int shard = -1;  // unused for a whole-group loss
};

struct Swap {
  double time = 0.0;
  uint64_t model_seed = 0;  // planted-weight seed of the new generation
  bool corrupt = false;     // bit-rot the image; install must be rejected
};

/// \brief A drawn serving schedule; single-group schedules leave the fleet
/// knobs at their defaults.
struct ServingSchedule {
  int replicas = 1;
  bool flash = false;            // flash-crowd arrivals
  std::vector<Fault> losses;     // whole-group losses (0..1)
  std::vector<Fault> failures;   // single-shard failures (0..2)
  std::vector<Swap> swaps;       // 0..2, sorted by time
};

template <typename T>
void SortByTime(std::vector<T>* items) {
  std::sort(items->begin(), items->end(),
            [](const T& a, const T& b) { return a.time < b.time; });
}

class ServingScenario : public Scenario {
 public:
  explicit ServingScenario(bool fleet) : fleet_(fleet) {}

  void AddFlags(FlagParser* flags) override {
    flags->AddInt64("shards", &shards_, "shard servers per group");
    flags->AddInt64("requests", &requests_, "requests per schedule");
    flags->AddDouble("rate", &rate_, "Poisson arrival rate, req/s");
    flags->AddInt64("data_rows", &data_rows_, "query log rows");
    flags->AddInt64("data_features", &data_features_, "query log dim");
    flags->AddDouble("degradation_budget", &degradation_budget_,
                     "allowed SLO-violation increase per fault");
  }

  Status Validate(const ModelSpec& model,
                  const std::vector<std::string>& /*engines*/) const override {
    if (!model.SupportsStatScore()) {
      return Status::InvalidArgument(model.name() + " is not servable");
    }
    COLSGD_RETURN_NOT_OK(CheckCounts({{"requests", requests_},
                                      {"data_rows", data_rows_},
                                      {"data_features", data_features_}}));
    // A negative budget fails every seed on purpose (the shrinker's and the
    // repro artifact's test input); NaN or infinity would check nothing.
    if (!std::isfinite(degradation_budget_)) {
      return Status::InvalidArgument("--degradation_budget must be finite");
    }
    COLSGD_RETURN_NOT_OK(WorkloadConfig::Validate(Workload({})));
    if (fleet_) {
      ServingSchedule flash;  // shaped by the horizon too
      flash.flash = true;
      COLSGD_RETURN_NOT_OK(WorkloadConfig::Validate(Workload(flash)));
    }
    return FleetConfig::Validate(Config({}, 0));
  }

  std::string Prepare(const std::string& /*engine*/,
                      const std::string& model) override {
    model_ = model;
    SyntheticSpec spec;
    spec.name = "serving_chaos_queries";
    spec.num_rows = static_cast<uint64_t>(data_rows_);
    spec.num_features = static_cast<uint64_t>(data_features_);
    spec.avg_nnz_per_row = 12.0;
    spec.seed = kDataSeed;
    queries_ = GenerateSynthetic(spec);
    if (fleet_) return "";
    // A single frontend serves the same Poisson arrivals under every seed,
    // so its fault-free yardstick is computed once.
    clean_fraction_ = CleanFraction(Config({}, 0), Arrivals({}));
    return "fault-free SLO violation fraction " +
           FormatDouble(clean_fraction_);
  }

  std::vector<std::string> Components(uint64_t seed) const override {
    const ServingSchedule s = Generate(seed);
    std::vector<std::string> components;
    ListIndexed(s.losses, "loss", &components);
    ListIndexed(s.failures, "failure", &components);
    ListIndexed(s.swaps, "swap", &components);
    if (s.flash) components.push_back("flash");
    return components;
  }

  std::string Describe(uint64_t seed,
                       const Disabled& disabled) const override {
    const ServingSchedule s = Draw(seed, disabled);
    std::string out;
    if (fleet_) {
      out = "R=" + std::to_string(s.replicas) +
            (s.flash ? " flash" : " poisson") + " losses[";
      for (size_t i = 0; i < s.losses.size(); ++i) {
        out += (i > 0 ? ", group " : "group ") +
               std::to_string(s.losses[i].group) + " @" +
               FormatDouble(s.losses[i].time) + "s";
      }
      out += "] ";
    }
    out += "failures[";
    for (size_t i = 0; i < s.failures.size(); ++i) {
      const Fault& f = s.failures[i];
      out += (i > 0 ? ", " : "") +
             (fleet_ ? "g" + std::to_string(f.group) + "/s"
                     : std::string("shard ")) +
             std::to_string(f.shard) + " @" + FormatDouble(f.time) + "s";
    }
    out += "] swaps[";
    for (size_t i = 0; i < s.swaps.size(); ++i) {
      out += (i > 0 ? ", @" : "@") + FormatDouble(s.swaps[i].time) +
             "s seed " + std::to_string(s.swaps[i].model_seed) +
             (s.swaps[i].corrupt ? " (corrupt)" : "");
    }
    return out + "]";
  }

  Verdict Run(uint64_t seed, const Disabled& disabled) const override {
    const ServingSchedule s = Draw(seed, disabled);
    const FleetConfig config = Config(s, seed);
    const std::vector<ServeRequest> arrivals = Arrivals(s);
    // The replicated fleet's yardstick depends on R, the arrivals and the
    // router's seed, so it is run per schedule.
    const double clean_fraction =
        fleet_ ? CleanFraction(config, arrivals) : clean_fraction_;

    Verdict verdict;
    ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries_);
    const Status install = fleet.Install(Planted(kDataSeed));
    if (!install.ok()) {
      verdict.diagnosis = install.ToString();
      verdict.violations.push_back("initial install failed: " +
                                   verdict.diagnosis);
      return verdict;
    }
    for (const Swap& swap : s.swaps) {
      std::vector<uint8_t> image =
          SerializeModel(Planted(swap.model_seed));
      // Deterministic single-bit rot: CRC32C detects every 1-bit error.
      if (swap.corrupt) image[swap.model_seed % image.size()] ^= 0x40;
      fleet.ScheduleSwapImage(swap.time, std::move(image),
                              /*trained_iterations=*/0);
    }
    for (const Fault& loss : s.losses) {
      fleet.ScheduleGroupFailure(loss.time, loss.group);
    }
    for (const Fault& f : s.failures) {
      fleet.ScheduleShardFailure(f.time, f.group, f.shard);
    }
    const Status run = fleet.Run(arrivals);
    verdict.completed = run.ok();
    if (!run.ok()) {
      verdict.diagnosis = run.ToString();
      verdict.violations.push_back("run did not complete: " +
                                   verdict.diagnosis);
      return verdict;
    }
    verdict.fingerprint = fleet.Fingerprint();
    Check(fleet, config, s, clean_fraction, &verdict);
    return verdict;
  }

 private:
  /// \brief Expected span of the arrival process, the window fault times
  /// are drawn from.
  double Horizon() const { return static_cast<double>(requests_) / rate_; }

  /// \brief The serving plane that runs schedule `s` of `seed`.
  FleetConfig Config(const ServingSchedule& s, uint64_t seed) const {
    FleetConfig config;
    config.replicas = s.replicas;
    config.routing = fleet_;
    config.serve.num_shards = static_cast<int>(shards_);
    config.serve.reply_timeout = 0.020;
    // Heartbeats tuned so whole-group detection lands inside the
    // sub-second run; the production 0.6 s would outlive the workload.
    config.detector.heartbeat_interval = 0.005;
    config.detector.heartbeat_timeout = 0.02;
    config.seed = seed;  // route / hedge tie-break stream
    return config;
  }

  /// \brief The arrival process of schedule `s`.
  WorkloadConfig Workload(const ServingSchedule& s) const {
    WorkloadConfig workload;
    workload.rate = rate_;
    workload.num_requests = requests_;
    if (s.flash) {
      workload.arrivals = "flash";
      workload.flash_at = 0.35 * Horizon();
      workload.flash_duration = 0.20 * Horizon();
      workload.flash_factor = 6.0;
    }
    return workload;
  }

  std::vector<ServeRequest> Arrivals(const ServingSchedule& s) const {
    return GenerateArrivals(Workload(s), queries_.num_rows());
  }

  /// \brief Degradation yardstick: the SLO-violation fraction of the same
  /// plane on the same arrivals with no faults, so flash-crowd sheddings
  /// cancel out of the comparison.
  double CleanFraction(const FleetConfig& config,
                       const std::vector<ServeRequest>& arrivals) const {
    ServeFleet clean(ClusterSpec::Cluster1(), config, &queries_);
    COLSGD_CHECK_OK(clean.Install(Planted(kDataSeed)));
    COLSGD_CHECK_OK(clean.Run(arrivals));
    return clean.Summarize().slo_violation_fraction;
  }

  /// \brief The served model with planted weights drawn from `model_seed`:
  /// the initial install's and every swap's image.
  SavedModel Planted(uint64_t model_seed) const {
    return PlantedModel(model_, static_cast<uint64_t>(data_features_),
                        model_seed);
  }

  /// \brief Draws the schedule from a private stream per seed; the fleet's
  /// stream is distinct, so the same seed draws unrelated schedules.
  ServingSchedule Generate(uint64_t seed) const {
    Rng rng = Rng(seed).Split(fleet_ ? 0xF1EE7C4A05ULL : 0x5e71e);
    const double horizon = Horizon();
    ServingSchedule s;
    if (fleet_) {
      s.replicas = 2 + static_cast<int>(rng.NextBounded(2));
      s.flash = rng.NextDouble() < 0.5;
      if (rng.NextDouble() < 0.5) {
        // Early enough that detection (and the drained batches'
        // completions) land inside the run even under a flash crowd.
        s.losses.push_back(
            {rng.NextUniform(0.15 * horizon, 0.60 * horizon),
             static_cast<int>(rng.NextBounded(
                 static_cast<uint64_t>(s.replicas))),
             -1});
      }
    }
    const uint64_t num_failures = rng.NextBounded(3);
    for (uint64_t i = 0; i < num_failures; ++i) {
      Fault failure;
      failure.time = rng.NextUniform(0.15 * horizon, 0.85 * horizon);
      if (fleet_) {
        failure.group = static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(s.replicas)));
        // The lost group dies whole; single-shard failures land on
        // siblings.
        if (!s.losses.empty() && failure.group == s.losses[0].group) {
          failure.group = (failure.group + 1) % s.replicas;
        }
      }
      failure.shard = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(shards_)));
      s.failures.push_back(failure);
    }
    SortByTime(&s.failures);
    const uint64_t num_swaps = rng.NextBounded(3);
    for (uint64_t i = 0; i < num_swaps; ++i) {
      Swap swap;
      swap.time = rng.NextUniform(0.10 * horizon, 0.70 * horizon);
      swap.model_seed = rng.NextU64();
      swap.corrupt = rng.NextDouble() < 0.25;
      s.swaps.push_back(swap);
    }
    SortByTime(&s.swaps);
    return s;
  }

  /// \brief The schedule drawn from `seed` minus the disabled components.
  ServingSchedule Draw(uint64_t seed, const Disabled& disabled) const {
    ServingSchedule s = Generate(seed);
    DropIndexed(&s.losses, "loss", disabled);
    DropIndexed(&s.failures, "failure", disabled);
    DropIndexed(&s.swaps, "swap", disabled);
    if (disabled.count("flash") != 0) s.flash = false;
    return s;
  }

  /// \brief Invariants 2-5 on a completed run.
  void Check(const ServeFleet& fleet, const FleetConfig& config,
             const ServingSchedule& s, double clean_fraction,
             Verdict* verdict) const {
    const FleetSummary summary = fleet.Summarize();
    const auto violate = [verdict](std::string violation) {
      verdict->violations.push_back(std::move(violation));
    };
    verdict->metrics = {
        {"slo_violation_fraction", summary.slo_violation_fraction},
        {"clean_slo_violation_fraction", clean_fraction},
        {"timed_out", static_cast<double>(summary.timed_out)}};

    if (summary.offered != requests_) {
      violate("offered " + std::to_string(summary.offered) +
              " != scheduled " + std::to_string(requests_));
    }
    if (summary.completed + summary.rejected + summary.timed_out !=
        summary.offered) {
      violate("conservation: completed " + std::to_string(summary.completed) +
              " + rejected " + std::to_string(summary.rejected) +
              " + timed_out " + std::to_string(summary.timed_out) +
              " != offered " + std::to_string(summary.offered));
    }

    // Swaps fire in time order while the run is live, so the fired ones
    // are a prefix of the schedule (a late swap may never fire). Valid
    // images become generations 1, 2, ... in that order.
    std::map<int64_t, uint64_t> generation_seed = {{0, kDataSeed}};
    const size_t fired =
        static_cast<size_t>(summary.swaps_completed + summary.swaps_failed);
    if (fired > s.swaps.size()) {
      violate("more swaps fired than scheduled: " + std::to_string(fired) +
              " > " + std::to_string(s.swaps.size()));
    } else {
      int64_t valid = 0;
      int64_t corrupt = 0;
      for (size_t i = 0; i < fired; ++i) {
        if (s.swaps[i].corrupt) {
          ++corrupt;
        } else {
          generation_seed[++valid] = s.swaps[i].model_seed;
        }
      }
      if (valid != summary.swaps_completed ||
          corrupt != summary.swaps_failed) {
        violate("fired-swap prefix mismatch: " + std::to_string(valid) +
                " valid / " + std::to_string(corrupt) +
                " corrupt in schedule vs " +
                std::to_string(summary.swaps_completed) + " installed / " +
                std::to_string(summary.swaps_failed) + " rejected");
      }
    }
    // Every group's generation history, position by position: the
    // bring-up, then one entry per fired swap the group saw, in firing
    // order. The single frontend sees every fired swap and rejects the
    // corrupt ones itself; a routed fleet's router rejects them before any
    // group is touched, so its groups see only the valid images.
    std::vector<bool> expected = {true};  // install outcomes, bring-up first
    for (size_t i = 0; i < std::min(fired, s.swaps.size()); ++i) {
      if (!fleet_ || !s.swaps[i].corrupt) {
        expected.push_back(!s.swaps[i].corrupt);
      }
    }
    const auto render = [](const std::vector<bool>& outcomes) {
      std::string out;
      for (bool ok : outcomes) out += ok ? 'v' : 'x';
      return out;
    };
    for (int g = 0; g < s.replicas; ++g) {
      const std::vector<GenerationInfo>& history =
          fleet.group(g).registry().history();
      std::vector<bool> seen;
      int64_t next_generation = 0;
      bool numbered = true;
      for (const GenerationInfo& info : history) {
        seen.push_back(info.ok);
        numbered &= info.generation == (info.ok ? next_generation++ : -1);
      }
      if (seen != expected || !numbered) {
        violate("group " + std::to_string(g) + " install history " +
                render(seen) + " (v installed, x rejected)" +
                (numbered ? "" : " misnumbered") + ", schedule says " +
                render(expected));
      }
    }

    std::map<int64_t, std::vector<double>> offline;
    int64_t mismatches = 0;
    for (const RequestRecord& rec : fleet.records()) {
      if (rec.status != RequestStatus::kCompleted) continue;
      const auto seed_it = generation_seed.find(rec.generation);
      if (seed_it == generation_seed.end()) {
        violate("request " + std::to_string(rec.id) +
                " completed against unknown generation " +
                std::to_string(rec.generation));
        continue;
      }
      auto [it, fresh] = offline.try_emplace(rec.generation);
      if (fresh) {
        Result<DatasetScores> scored = ScoreDatasetSharded(
            Planted(seed_it->second), "round_robin",
            static_cast<int>(shards_), queries_, queries_.num_rows());
        COLSGD_CHECK_OK(scored.status());
        it->second = scored.ValueOrDie().scores;
      }
      const double expected = it->second[rec.row];
      if (std::memcmp(&expected, &rec.score, sizeof(double)) != 0 &&
          ++mismatches <= 3) {
        violate("wrong answer: request " + std::to_string(rec.id) + " row " +
                std::to_string(rec.row) + " generation " +
                std::to_string(rec.generation) + " scored " +
                FormatDouble(rec.score) + ", offline kernel says " +
                FormatDouble(expected));
      }
    }
    if (mismatches > 3) {
      violate("... " + std::to_string(mismatches - 3) +
              " more wrong answers");
    }

    // One group loses at most a batch per shard failure to timeouts; with a
    // survivor group a failed batch re-dispatches instead.
    const size_t faults = s.losses.size() + s.failures.size();
    const int64_t timeout_bound =
        fleet_ ? 0
               : static_cast<int64_t>(s.failures.size()) *
                     config.serve.max_batch;
    if (summary.timed_out > timeout_bound) {
      violate("timed_out " + std::to_string(summary.timed_out) +
              " exceeds the bound " + std::to_string(timeout_bound));
    }
    if (faults == 0 && (summary.failovers != 0 || summary.redispatches != 0)) {
      violate("failover or re-dispatch with no fault scheduled");
    }
    if (summary.group_down_events != static_cast<int64_t>(s.losses.size())) {
      violate("group_down_events " +
              std::to_string(summary.group_down_events) +
              " != scheduled group losses " +
              std::to_string(s.losses.size()));
    }
    const double allowed =
        clean_fraction +
        static_cast<double>(faults) * degradation_budget_ + 1e-12;
    if (summary.slo_violation_fraction > allowed) {
      violate("SLO violation fraction " +
              FormatDouble(summary.slo_violation_fraction) + " exceeds clean " +
              FormatDouble(clean_fraction) + " + budget (allowed " +
              FormatDouble(allowed) + ")");
    }
  }

  const bool fleet_;
  int64_t shards_ = 4;
  int64_t requests_ = 600;
  double rate_ = 4000.0;
  int64_t data_rows_ = 2000;
  int64_t data_features_ = 300;
  /// Allowed SLO-violation-fraction increase per fault over the fault-free
  /// run.
  double degradation_budget_ = 0.30;
  std::string model_;
  Dataset queries_;
  /// The single frontend's yardstick (Prepare); unused by the fleet.
  double clean_fraction_ = 0.0;
};

}  // namespace

std::unique_ptr<Scenario> MakeServingScenario(const std::string& name) {
  if (name == "serving") return std::make_unique<ServingScenario>(false);
  if (name == "serving_fleet") return std::make_unique<ServingScenario>(true);
  return nullptr;
}

}  // namespace chaos
}  // namespace colsgd
