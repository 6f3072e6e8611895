// The one seed driver behind colsgd_chaos (DESIGN.md §10). For every
// model x engine x seed it runs the scenario's schedule twice and compares
// fingerprints; a failing seed is shrunk, printed with a repro command
// rendered from the flag registration, and the first one is written as a
// JSON artifact.
#include <algorithm>
#include <charconv>
#include <cstdio>

#include "chaos/scenarios.h"
#include "model/factory.h"
#include "obs/bench/json.h"
#include "storage/atomic_file.h"

namespace colsgd {
namespace chaos {
namespace {

/// Longest --seeds range accepted (a sweep that long would run for hours).
constexpr uint64_t kMaxSeedRange = 1 << 20;

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (char c : text) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

bool ParseU64(const std::string& text, uint64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// \brief "0..31" (inclusive range), "7", or "3,9,12"; false on anything
/// else.
bool ParseSeeds(const std::string& spec, std::vector<uint64_t>* seeds) {
  const size_t dots = spec.find("..");
  if (dots != std::string::npos) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (!ParseU64(spec.substr(0, dots), &lo) ||
        !ParseU64(spec.substr(dots + 2), &hi) || hi < lo ||
        hi - lo >= kMaxSeedRange) {
      return false;
    }
    for (uint64_t s = lo; s <= hi; ++s) seeds->push_back(s);
    return true;
  }
  for (const std::string& item : SplitList(spec)) {
    uint64_t seed = 0;
    if (!ParseU64(item, &seed)) return false;
    seeds->push_back(seed);
  }
  return !seeds->empty();
}

/// \brief The command line that replays `seed` of one configuration: every
/// registered flag at its current value.
std::string ReproCommand(const FlagParser& flags, uint64_t seed,
                         const std::string& engine, const std::string& model) {
  std::string out = "colsgd_chaos";
  for (auto [name, value] : flags.Values()) {
    if (name == "artifact" || name == "verbose") continue;
    if (name == "seeds") value = std::to_string(seed);
    if (name == "engines") value = engine;
    if (name == "models") value = model;
    out += " --" + name + " " + value;
  }
  return out;
}

/// \brief The JSON repro artifact of a failing seed.
std::string ArtifactJson(const std::string& scenario, uint64_t seed,
                         const std::string& engine, const std::string& model,
                         const std::string& schedule,
                         const std::string& shrunk, const Verdict& verdict,
                         const std::string& repro) {
  std::string out = "{";
  const auto key = [&out](const char* name) {
    out += out.size() > 1 ? ",\n  \"" : "\n  \"";
    out += name;
    out += "\": ";
  };
  key("scenario");
  AppendJsonString(&out, scenario);
  key("seed");
  out += std::to_string(seed);
  if (!engine.empty()) {
    key("engine");
    AppendJsonString(&out, engine);
  }
  key("model");
  AppendJsonString(&out, model);
  key("schedule");
  AppendJsonString(&out, schedule);
  key("shrunk_schedule");
  AppendJsonString(&out, shrunk);
  key("completed");
  out += verdict.completed ? "true" : "false";
  key("diagnosis");
  AppendJsonString(&out, verdict.diagnosis);
  key("fingerprint");
  out += std::to_string(verdict.fingerprint);
  key("metrics");
  out += "{";
  for (size_t i = 0; i < verdict.metrics.size(); ++i) {
    out += i > 0 ? ", " : "";
    AppendJsonString(&out, verdict.metrics[i].first);
    out += ": ";
    AppendJsonNumber(&out, verdict.metrics[i].second);
  }
  out += "}";
  key("violations");
  out += "[";
  for (size_t i = 0; i < verdict.violations.size(); ++i) {
    out += i > 0 ? ", " : "";
    AppendJsonString(&out, verdict.violations[i]);
  }
  out += "]";
  key("repro");
  AppendJsonString(&out, repro);
  return out + "\n}\n";
}

int Usage(const FlagParser& flags, const char* program,
          const std::string& error) {
  std::fprintf(stderr, "%s\n", error.c_str());
  flags.PrintUsage(program);
  return 2;
}

}  // namespace

std::unique_ptr<Scenario> MakeScenario(const std::string& name) {
  std::unique_ptr<Scenario> scenario = MakeTrainingScenario(name);
  return scenario != nullptr ? std::move(scenario)
                             : MakeServingScenario(name);
}

Disabled Shrink(const Scenario& scenario, uint64_t seed, int* runs) {
  Disabled disabled;
  int spent = 0;
  for (bool progress = true; progress;) {
    progress = false;
    for (const std::string& component : scenario.Components(seed)) {
      if (!disabled.insert(component).second) continue;
      ++spent;
      // A component whose removal makes the run pass is needed for the
      // failure; anything else goes.
      if (scenario.Run(seed, disabled).ok()) {
        disabled.erase(component);
      } else {
        progress = true;
      }
    }
  }
  if (runs != nullptr) *runs = spent;
  return disabled;
}

int RunChaos(int argc, char** argv, const ScenarioFactory& make) {
  // The scenario decides which flags exist, so find it before parsing.
  std::string name = "train";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenario=", 0) == 0) name = arg.substr(11);
    if (arg == "--scenario" && i + 1 < argc) name = argv[i + 1];
  }
  std::unique_ptr<Scenario> scenario = make(name);
  const std::vector<std::string> all_engines =
      scenario != nullptr ? scenario->Engines() : std::vector<std::string>{};
  std::string seeds_spec = "0..31";
  std::string engines = "all";
  std::string models = "lr";
  std::string artifact = "chaos_repro.json";
  bool verbose = false;

  FlagParser flags;
  flags.AddString("scenario", &name,
                  "train | membership | ssp | serving | serving_fleet");
  flags.AddString("seeds", &seeds_spec, "seed range 'a..b' or list 'a,b,c'");
  if (!all_engines.empty()) {
    std::string help = "comma list of engines, or 'all' (";
    for (const std::string& e : all_engines) help += e + ",";
    help.back() = ')';
    flags.AddString("engines", &engines, help);
  }
  flags.AddString("models", &models, "comma list of models (lr, svm, ...)");
  if (scenario != nullptr) scenario->AddFlags(&flags);
  flags.AddString("artifact", &artifact,
                  "path for the failing-seed repro JSON ('' disables)");
  flags.AddBool("verbose", &verbose, "print one line per seed");
  if (scenario == nullptr) {
    return Usage(flags, argv[0], "unknown --scenario: " + name);
  }
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Usage(flags, argv[0], parsed.ToString());
  std::vector<uint64_t> seeds;
  if (!ParseSeeds(seeds_spec, &seeds)) {
    return Usage(flags, argv[0], "bad --seeds: " + seeds_spec);
  }
  std::vector<std::string> engine_list = {""};
  if (!all_engines.empty()) {
    engine_list = engines == "all" ? all_engines : SplitList(engines);
    for (const std::string& e : engine_list) {
      if (std::find(all_engines.begin(), all_engines.end(), e) ==
          all_engines.end()) {
        return Usage(flags, argv[0],
                     "--scenario " + name + " does not run engine " + e);
      }
    }
  }
  const std::vector<std::string> model_list = SplitList(models);
  if (engine_list.empty() || model_list.empty()) {
    return Usage(flags, argv[0], "empty --engines or --models");
  }
  for (const std::string& model : model_list) {
    Result<std::unique_ptr<ModelSpec>> spec = CreateModel(model);
    const Status valid =
        spec.ok() ? scenario->Validate(**spec, engine_list) : spec.status();
    if (!valid.ok()) return Usage(flags, argv[0], valid.ToString());
  }

  int64_t runs = 0;
  int64_t failures = 0;
  bool artifact_written = false;
  for (const std::string& model : model_list) {
    for (const std::string& engine : engine_list) {
      const std::string label =
          name + (engine.empty() ? "" : " " + engine) + " x " + model;
      const std::string yardstick = scenario->Prepare(engine, model);
      if (verbose && !yardstick.empty()) {
        std::printf("[%s] %s\n", label.c_str(), yardstick.c_str());
      }
      for (uint64_t seed : seeds) {
        Verdict verdict = scenario->Run(seed, {});
        const Verdict replay = scenario->Run(seed, {});
        ++runs;
        if (replay.fingerprint != verdict.fingerprint) {
          verdict.violations.push_back(
              "nondeterministic: replay fingerprint " +
              std::to_string(replay.fingerprint) + " != " +
              std::to_string(verdict.fingerprint));
        }
        const std::string schedule = scenario->Describe(seed, {});
        const unsigned long long fp = verdict.fingerprint;
        if (verbose) {
          std::printf("[%s] seed %llu %s fp=%08llx  %s\n", label.c_str(),
                      static_cast<unsigned long long>(seed),
                      verdict.ok() ? "ok  " : "FAIL", fp, schedule.c_str());
        }
        if (verdict.ok()) continue;
        ++failures;
        std::printf("[%s] seed %llu FAILED fp=%08llx (%s):\n", label.c_str(),
                    static_cast<unsigned long long>(seed), fp,
                    schedule.c_str());
        for (const std::string& v : verdict.violations) {
          std::printf("  - %s\n", v.c_str());
        }
        int shrink_runs = 0;
        const std::string shrunk =
            scenario->Describe(seed, Shrink(*scenario, seed, &shrink_runs));
        std::printf("  shrunk (%d extra runs): %s\n", shrink_runs,
                    shrunk.c_str());
        const std::string repro = ReproCommand(flags, seed, engine, model);
        std::printf("  repro: %s\n", repro.c_str());
        if (artifact.empty() || artifact_written) continue;
        const std::string json = ArtifactJson(name, seed, engine, model,
                                              schedule, shrunk, verdict,
                                              repro);
        const Status written = AtomicWriteFile(
            artifact, std::vector<uint8_t>(json.begin(), json.end()));
        if (written.ok()) {
          std::printf("  artifact: %s\n", artifact.c_str());
          artifact_written = true;
        } else {
          std::fprintf(stderr, "%s\n", written.ToString().c_str());
        }
      }
    }
  }
  std::printf("chaos(%s): %lld schedule(s), %lld failure(s)\n", name.c_str(),
              static_cast<long long>(runs), static_cast<long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace chaos
}  // namespace colsgd
