// Tests for the deterministic chaos harness (src/chaos): schedule
// generation, invariant checking, bit-identical replay, the shrinker, the
// repro command and artifact, and the colsgd_chaos command line.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "chaos_cli.h"
#include "obs/bench/json.h"

namespace colsgd {
namespace chaos {
namespace {

// The CI training configuration's scenario flags (workers default to 4).
const std::vector<std::string> kCiTrainFlags = {
    "--iterations", "12", "--data_rows", "800", "--data_features", "150"};

std::vector<std::string> Concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// \brief `name` with its scenario flags parsed from `flags` and one
/// configuration prepared.
std::unique_ptr<Scenario> Configured(const std::string& name,
                                     const std::vector<std::string>& flags,
                                     const std::string& engine = "columnsgd",
                                     const std::string& model = "lr") {
  std::unique_ptr<Scenario> scenario = MakeScenario(name);
  EXPECT_NE(scenario, nullptr) << name;
  FlagParser parser;
  scenario->AddFlags(&parser);
  std::vector<std::string> args = Concat({"test"}, flags);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  scenario->Prepare(scenario->Engines().empty() ? "" : engine, model);
  return scenario;
}

double Metric(const Verdict& verdict, const std::string& name) {
  for (const auto& [key, value] : verdict.metrics) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0.0;
}

/// \brief Runs seeds through `scenario` twice each and expects every run
/// to pass and replay bit-identically.
void ExpectSeedsPassAndReplay(const Scenario& scenario,
                              const std::vector<uint64_t>& seeds) {
  for (uint64_t seed : seeds) {
    EXPECT_EQ(scenario.Describe(seed, {}), scenario.Describe(seed, {}));
    const Verdict first = scenario.Run(seed, {});
    EXPECT_TRUE(first.ok()) << "seed " << seed << ": "
                            << (first.violations.empty()
                                    ? ""
                                    : first.violations.front());
    EXPECT_TRUE(first.completed) << "seed " << seed;
    EXPECT_EQ(first.fingerprint, scenario.Run(seed, {}).fingerprint)
        << "seed " << seed;
  }
}

/// \brief Expects the fault plan drawn from `seed` to pass
/// FaultPlan::Validate: Run reports a rejected plan as a violation before
/// anything trains.
void ExpectPlanValidates(const Scenario& scenario, uint64_t seed) {
  for (const std::string& violation : scenario.Run(seed, {}).violations) {
    EXPECT_EQ(violation.find("rejected"), std::string::npos)
        << "seed " << seed << ": " << violation;
  }
}

TEST(ChaosScheduleTest, GenerationIsDeterministicAndDiverse) {
  const auto scenario = Configured("train", kCiTrainFlags);
  std::set<std::string> shapes;
  std::set<std::string> kinds;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    EXPECT_EQ(scenario->Describe(seed, {}), scenario->Describe(seed, {}));
    EXPECT_EQ(scenario->Components(seed), scenario->Components(seed));
    ExpectPlanValidates(*scenario, seed);
    shapes.insert(scenario->Describe(seed, {}));
    for (const std::string& c : scenario->Components(seed)) {
      kinds.insert(c.substr(0, c.find(':')));
    }
  }
  // The generator explores the fault space rather than repeating one mix.
  EXPECT_GT(shapes.size(), 24u);
  for (const char* kind : {"scripted", "partition", "drop", "corrupt",
                           "torn", "bitrot", "stragglers", "checkpoint"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << kind;
  }
}

TEST(ChaosRunTest, SeedsPassInvariantsAndReplayBitIdentically) {
  ExpectSeedsPassAndReplay(*Configured("train", kCiTrainFlags),
                           {0, 1, 2, 3, 4, 5});
}

TEST(ChaosRunTest, CorruptionShowsUpInTheVerdictCounters) {
  const auto scenario = Configured("train", kCiTrainFlags);
  uint64_t seed = 0;
  while (seed < 32) {
    const std::vector<std::string> c = scenario->Components(seed);
    if (std::find(c.begin(), c.end(), "corrupt") != c.end()) break;
    ++seed;
  }
  ASSERT_LT(seed, 32u) << "no seed draws wire corruption";
  // Everything but the corruption off.
  Disabled others;
  for (const std::string& c : scenario->Components(seed)) {
    if (c != "corrupt") others.insert(c);
  }
  EXPECT_EQ(scenario->Describe(seed, others).rfind("corrupt(", 0), 0u);
  const Verdict verdict = scenario->Run(seed, others);
  EXPECT_TRUE(verdict.ok()) << (verdict.violations.empty()
                                    ? ""
                                    : verdict.violations.front());
  EXPECT_GT(Metric(verdict, "messages_corrupted"), 0.0);
  EXPECT_GE(Metric(verdict, "retransmits"),
            Metric(verdict, "messages_corrupted"));
}

TEST(ChaosRunTest, ImpossibleEpsilonProducesACleanViolation) {
  // Nothing can converge to a negative bound.
  const auto scenario =
      Configured("train", Concat(kCiTrainFlags, {"--epsilon", "-10"}));
  const Verdict verdict = scenario->Run(1, {});
  EXPECT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.completed);
  ASSERT_FALSE(verdict.violations.empty());
  EXPECT_NE(verdict.violations.front().find("did not re-converge"),
            std::string::npos);
}

TEST(ChaosShrinkTest, ComponentsCoverThePlanAndDisableWorks) {
  const auto scenario = Configured("train", kCiTrainFlags);
  // The seed with the richest schedule.
  uint64_t seed = 0;
  for (uint64_t s = 1; s < 32; ++s) {
    if (scenario->Components(s).size() > scenario->Components(seed).size()) {
      seed = s;
    }
  }
  const std::vector<std::string> components = scenario->Components(seed);
  ASSERT_GE(components.size(), 6u);
  const std::string full = scenario->Describe(seed, {});
  Disabled all;
  for (const std::string& component : components) {
    EXPECT_NE(scenario->Describe(seed, {component}), full) << component;
    all.insert(component);
  }
  EXPECT_EQ(scenario->Describe(seed, {"no_such_component"}), full);
  EXPECT_EQ(scenario->Describe(seed, {"scripted:9"}), full);
  EXPECT_EQ(scenario->Describe(seed, all), "(fault-free)");
}

/// \brief Five components; the run fails exactly when "b" and "d" are both
/// enabled.
class PairScenario : public Scenario {
 public:
  void AddFlags(FlagParser* /*flags*/) override {}
  std::string Prepare(const std::string& /*engine*/,
                      const std::string& /*model*/) override {
    return "";
  }
  std::vector<std::string> Components(uint64_t /*seed*/) const override {
    return {"a", "b", "c", "d", "e"};
  }
  Verdict Run(uint64_t /*seed*/, const Disabled& disabled) const override {
    Verdict verdict;
    if (disabled.count("b") == 0 && disabled.count("d") == 0) {
      verdict.violations.push_back("b and d together");
    }
    return verdict;
  }
  std::string Describe(uint64_t /*seed*/,
                       const Disabled& disabled) const override {
    std::string out;
    for (const std::string& c : Components(0)) {
      if (disabled.count(c) == 0) out += c;
    }
    return out;
  }
};

TEST(ChaosShrinkTest, ShrinkKeepsOnlyTheFailingComponent) {
  const PairScenario scenario;
  int runs = 0;
  const Disabled shrunk = Shrink(scenario, 0, &runs);
  EXPECT_EQ(scenario.Describe(0, shrunk), "bd");
  EXPECT_FALSE(scenario.Run(0, shrunk).ok());
  // One pass tries each component once; a second pass finds nothing more.
  EXPECT_EQ(runs, 5 + 2);
}

TEST(MembershipChaosTest, CrashesAndMembershipEventsAreNotShrinkable) {
  // They are drawn against a mirrored active set: without one crash a later
  // grow could find no spare rank, so shrinking keeps all of them.
  const auto scenario = Configured("membership", kCiTrainFlags);
  bool saw_crash = false;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Disabled all;
    for (const std::string& c : scenario->Components(seed)) {
      EXPECT_EQ(c.find("scripted"), std::string::npos) << "seed " << seed;
      all.insert(c);
    }
    const std::string events = scenario->Describe(seed, all);
    EXPECT_EQ(scenario->Describe(seed, {}).rfind(events, 0), 0u) << seed;
    saw_crash |= events.find("crash(") != std::string::npos;
  }
  EXPECT_TRUE(saw_crash);
}

TEST(SspChaosTest, GenerationIsDeterministicAndDiverse) {
  const auto scenario = Configured("ssp", kCiTrainFlags);
  std::set<std::string> shapes;
  std::set<std::string> slacks;
  bool saw_jitter = false, saw_stragglers = false, saw_crash = false;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const std::string shape = scenario->Describe(seed, {});
    EXPECT_EQ(shape, scenario->Describe(seed, {}));
    ExpectPlanValidates(*scenario, seed);
    shapes.insert(shape);
    slacks.insert(shape.substr(0, shape.find(' ')));
    saw_jitter |= shape.find("jitter(") != std::string::npos;
    saw_stragglers |= shape.find("stragglers(") != std::string::npos;
    saw_crash |= shape.find("crash(") != std::string::npos;
  }
  EXPECT_GT(shapes.size(), 24u);
  // The full {0, 1, 2, 4} grid gets drawn.
  EXPECT_EQ(slacks, (std::set<std::string>{"slack=0", "slack=1", "slack=2",
                                           "slack=4"}));
  EXPECT_TRUE(saw_jitter);
  EXPECT_TRUE(saw_stragglers);
  EXPECT_TRUE(saw_crash);
  // Pinning --slack overrides the draw without disturbing the rest.
  const auto pinned =
      Configured("ssp", Concat(kCiTrainFlags, {"--slack", "3"}));
  const std::string drawn = scenario->Describe(5, {});
  EXPECT_EQ(pinned->Describe(5, {}),
            "slack=3" + drawn.substr(drawn.find(' ')));
}

TEST(SspChaosTest, SeedsPassInvariantsAndReplayBitIdentically) {
  for (const char* engine : {"columnsgd", "petuum"}) {
    SCOPED_TRACE(engine);
    ExpectSeedsPassAndReplay(*Configured("ssp", kCiTrainFlags, engine),
                             {0, 1, 2, 3});
  }
}

TEST(SspChaosTest, StalenessViolationWouldBeReported) {
  // A failing SSP seed names its scenario and pinned slack in the repro.
  std::string out;
  EXPECT_EQ(RunChaosCli(Concat({"--scenario", "ssp", "--seeds", "7",
                                "--engines", "columnsgd", "--slack", "2",
                                "--epsilon", "-10", "--artifact", ""},
                               kCiTrainFlags),
                        &out),
            1);
  EXPECT_NE(out.find("repro: colsgd_chaos --scenario ssp --seeds 7 "
                     "--engines columnsgd --models lr"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("--slack 2"), std::string::npos);
}

TEST(ServingChaosTest, SchedulesAreDeterministicAndCleanSeedsPass) {
  // Default flags: the configuration `colsgd_chaos --scenario serving`
  // runs in CI.
  ExpectSeedsPassAndReplay(*Configured("serving", {}), {0, 1, 2});
}

TEST(FleetChaosTest, SchedulesAreDeterministicAndCleanSeedsPass) {
  // Default flags: the configuration `colsgd_chaos --scenario
  // serving_fleet` runs in CI.
  ExpectSeedsPassAndReplay(*Configured("serving_fleet", {}), {0, 1, 2});
}

/// \brief A scenario whose fingerprint changes on every run.
class FlakyScenario : public PairScenario {
 public:
  Verdict Run(uint64_t /*seed*/, const Disabled& /*disabled*/) const override {
    Verdict verdict;
    verdict.fingerprint = ++runs_;
    return verdict;
  }

 private:
  mutable uint64_t runs_ = 0;
};

TEST(ChaosDriverTest, ReplayMismatchFailsTheSeed) {
  std::string out;
  EXPECT_EQ(RunChaosCli({"--scenario", "flaky", "--seeds", "0..1",
                         "--artifact", ""},
                        &out, nullptr,
                        [](const std::string&) {
                          return std::make_unique<FlakyScenario>();
                        }),
            1);
  EXPECT_NE(out.find("[flaky x lr] seed 1 FAILED"), std::string::npos)
      << out;
  EXPECT_NE(out.find("  - nondeterministic: replay fingerprint"),
            std::string::npos);
  EXPECT_NE(out.find("chaos(flaky): 2 schedule(s), 2 failure(s)"),
            std::string::npos);
}

// ---- The command line --------------------------------------------------

struct BadInvocation {
  const char* name;
  std::vector<std::string> args;
  const char* error;  // what stderr names
};

// Prints a case as its arguments. gtest puts the printed parameter into the
// test names that `--gtest_list_tests`, and so ctest, shows; without this it
// dumps the struct's bytes, pointers included, and the names change from run
// to run.
void PrintTo(const BadInvocation& invocation, std::ostream* os) {
  for (size_t i = 0; i < invocation.args.size(); ++i) {
    *os << (i == 0 ? "" : " ") << invocation.args[i];
  }
}

class ChaosUsageTest : public ::testing::TestWithParam<BadInvocation> {};

TEST_P(ChaosUsageTest, ExitsTwoWithUsage) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunChaosCli(GetParam().args, &out, &err), 2);
  EXPECT_NE(err.find(GetParam().error), std::string::npos) << err;
  EXPECT_NE(out.find("Usage:"), std::string::npos) << out;
  EXPECT_EQ(out.find("schedule(s)"), std::string::npos) << "nothing runs";
}

INSTANTIATE_TEST_SUITE_P(
    BadInvocations, ChaosUsageTest,
    ::testing::Values(
        BadInvocation{"SeedsNotANumber", {"--seeds", "abc"}, "bad --seeds"},
        BadInvocation{"SeedListWithGarbage", {"--seeds", "3,x"},
                      "bad --seeds"},
        BadInvocation{"SeedRangeBackwards", {"--seeds", "5..3"},
                      "bad --seeds"},
        BadInvocation{"UnknownScenario", {"--scenario", "bogus"},
                      "unknown --scenario: bogus"},
        BadInvocation{"UnknownFlag", {"--no_such_flag", "1"},
                      "unknown flag --no_such_flag"},
        BadInvocation{"BoolFlagGivenAValue", {"--verbose", "true"},
                      "unexpected positional argument: true"},
        BadInvocation{"ServingGivenSlack",
                      {"--scenario", "serving", "--slack", "3"},
                      "unknown flag --slack"},
        BadInvocation{"ServingGivenEngines",
                      {"--scenario", "serving", "--engines", "bogus"},
                      "unknown flag --engines"},
        BadInvocation{"TrainGivenShards",
                      {"--scenario", "train", "--shards", "9"},
                      "unknown flag --shards"},
        BadInvocation{"TrainGivenRate", {"--scenario", "train", "--rate", "1"},
                      "unknown flag --rate"},
        BadInvocation{"UnknownEngine", {"--engines", "bogus"},
                      "does not run engine bogus"},
        BadInvocation{"UnknownModel", {"--models", "lr,bogus"},
                      "unknown model: bogus"},
        BadInvocation{"ServingZeroShards",
                      {"--scenario", "serving", "--shards", "0"},
                      "num_shards must be >= 1"},
        BadInvocation{"FleetZeroShards",
                      {"--scenario", "serving_fleet", "--shards", "0"},
                      "num_shards must be >= 1"},
        BadInvocation{"ServingUnservableModel",
                      {"--scenario", "serving", "--models", "mlp8"},
                      "mlp8 is not servable"}),
    [](const ::testing::TestParamInfo<BadInvocation>& info) {
      return std::string(info.param.name);
    });

TEST(ChaosCliTest, HeaderExampleRuns) {
  // `--verbose` is a bare switch (the header example's form).
  std::string out;
  EXPECT_EQ(RunChaosCli(Concat({"--seeds", "17", "--engines", "petuum",
                                "--verbose"},
                               kCiTrainFlags),
                        &out),
            0);
  EXPECT_NE(out.find("[train petuum x lr] seed 17 ok"), std::string::npos)
      << out;
  EXPECT_NE(out.find("chaos(train): 1 schedule(s), 0 failure(s)"),
            std::string::npos);
}

// ---- Repro: a forced failure per scenario ------------------------------

struct ForcedFailure {
  const char* scenario;
  const char* engine;  // "" for the serving scenarios
  uint64_t seed;
  std::vector<std::string> flags;  // the scenario flags that force it
  const char* shrunk;              // what the failure needs
};

/// \brief Works in a fresh directory for its lifetime (repro commands
/// write their artifact to the working directory), then removes it.
class ScopedTempDir {
 public:
  ScopedTempDir()
      : home_(std::filesystem::current_path()),
        path_(::testing::TempDir() + "colsgd_chaos_XXXXXX") {
    EXPECT_NE(mkdtemp(path_.data()), nullptr);
    std::filesystem::current_path(path_);
  }
  ~ScopedTempDir() {
    std::filesystem::current_path(home_);
    std::filesystem::remove_all(path_);
  }
  const std::string& path() const { return path_; }

 private:
  std::filesystem::path home_;
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

class ForcedFailureTest : public ::testing::TestWithParam<ForcedFailure> {};

/// \brief The fingerprint on a "FAILED fp=..." line, or "".
std::string FailedFingerprint(const std::string& out) {
  const size_t at = out.find("FAILED fp=");
  return at == std::string::npos
             ? ""
             : out.substr(at + 10, out.find(' ', at + 10) - at - 10);
}

std::string ReproLine(const std::string& out) {
  const size_t at = out.find("  repro: ");
  return at == std::string::npos
             ? ""
             : out.substr(at + 9, out.find('\n', at) - at - 9);
}

TEST_P(ForcedFailureTest, PrintedReproFailsAgainWithTheSameFingerprint) {
  const ForcedFailure& f = GetParam();
  const ScopedTempDir dir;
  std::vector<std::string> args = {"--scenario", f.scenario, "--seeds",
                                   std::to_string(f.seed)};
  if (*f.engine != '\0') args = Concat(args, {"--engines", f.engine});
  const std::string artifact = dir.path() + "/artifact.json";
  std::string out;
  ASSERT_EQ(RunChaosCli(Concat(Concat(args, f.flags), {"--artifact", artifact}),
                        &out),
            1);
  const std::string fingerprint = FailedFingerprint(out);
  ASSERT_FALSE(fingerprint.empty()) << out;

  // Every flag the run read is in the repro, so it replays exactly.
  const std::string repro = ReproLine(out);
  for (size_t i = 0; i + 1 < f.flags.size(); i += 2) {
    EXPECT_NE(repro.find(f.flags[i] + " " + f.flags[i + 1]),
              std::string::npos)
        << repro;
  }
  std::vector<std::string> repro_args;
  std::istringstream words(repro);
  for (std::string word; words >> word;) repro_args.push_back(word);
  ASSERT_FALSE(repro_args.empty());
  ASSERT_EQ(repro_args.front(), "colsgd_chaos");
  repro_args.erase(repro_args.begin());
  std::string replay;
  EXPECT_EQ(RunChaosCli(repro_args, &replay), 1);
  EXPECT_EQ(FailedFingerprint(replay), fingerprint) << replay;

  // The artifact is valid JSON and carries the same run.
  Result<JsonValue> json = ParseJson(ReadFile(artifact));
  ASSERT_TRUE(json.ok()) << ReadFile(artifact);
  EXPECT_EQ(json->Find("scenario")->string_value(), f.scenario);
  EXPECT_EQ(json->Find("repro")->string_value(), repro);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%08llx",
                static_cast<unsigned long long>(
                    json->Find("fingerprint")->number_value()));
  EXPECT_EQ(hex, fingerprint);
  EXPECT_FALSE(json->Find("violations")->array().empty());
  const JsonValue* shrunk = json->Find("shrunk_schedule");
  ASSERT_NE(shrunk, nullptr);

  // The shrunk schedule keeps what the failure needs and still fails.
  EXPECT_EQ(shrunk->string_value(), f.shrunk);
  const auto scenario = Configured(f.scenario, f.flags, f.engine);
  const Disabled disabled = Shrink(*scenario, f.seed, nullptr);
  EXPECT_EQ(scenario->Describe(f.seed, disabled), f.shrunk);
  EXPECT_FALSE(scenario->Run(f.seed, disabled).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ForcedFailureTest,
    ::testing::Values(
        // Between the fault-free loss and the faulty one: only the
        // unprotected crash moves the trained model past the bound.
        ForcedFailure{"train", "columnsgd", 3,
                      Concat(kCiTrainFlags,
                             {"--block_rows", "64", "--epsilon", "-0.0728"}),
                      "crash(w2@3)"},
        // Membership weights match the fault-free run bitwise, so only an
        // impossible bound fails them; the grow/shrink events stay.
        ForcedFailure{"membership", "petuum", 2,
                      Concat(kCiTrainFlags,
                             {"--block_rows", "64", "--epsilon", "-10"}),
                      "r=2 grow(@2) grow(@3) shrink(@6) grow(@8)"},
        ForcedFailure{"ssp", "mxnet", 5,
                      Concat(kCiTrainFlags, {"--epsilon", "-0.0728"}),
                      "slack=2 jitter(0.661868) crash(w1@3)"},
        // A negative budget fails any schedule with a fault.
        ForcedFailure{"serving", "", 0, {"--degradation_budget", "-1"},
                      "failures[shard 2 @0.0677984s] swaps[]"},
        ForcedFailure{"serving_fleet", "", 0, {"--degradation_budget", "-1"},
                      "R=3 poisson losses[] failures[g0/s1 @0.0442648s] "
                      "swaps[]"}),
    [](const ::testing::TestParamInfo<ForcedFailure>& info) {
      return std::string(info.param.scenario);
    });

TEST(ChaosReproTest, ArtifactCarriesTheReplayCommand) {
  const ScopedTempDir dir;
  const std::string artifact = dir.path() + "/repro.json";
  std::string out;
  EXPECT_EQ(RunChaosCli(Concat({"--seeds", "4", "--engines", "columnsgd",
                                "--epsilon", "-10", "--artifact", artifact},
                               kCiTrainFlags),
                        &out),
            1);
  EXPECT_NE(out.find("  artifact: " + artifact), std::string::npos) << out;
  Result<JsonValue> json = ParseJson(ReadFile(artifact));
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("seed")->number_value(), 4.0);
  EXPECT_EQ(json->Find("engine")->string_value(), "columnsgd");
  EXPECT_EQ(json->Find("shrunk_schedule")->string_value(), "(fault-free)");
  EXPECT_NE(json->Find("violations")->array().at(0).string_value().find(
                "did not re-converge"),
            std::string::npos);
  EXPECT_TRUE(json->Find("metrics")->Find("fault_loss")->is_number());
  const std::string repro = json->Find("repro")->string_value();
  EXPECT_EQ(repro.rfind("colsgd_chaos --scenario train --seeds 4 "
                        "--engines columnsgd --models lr",
                        0),
            0u)
      << repro;
  for (const char* flag : {"--iterations 12", "--block_rows 256",
                           "--epsilon -10", "--data_rows 800"}) {
    EXPECT_NE(repro.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(repro.find("--artifact"), std::string::npos);
}

}  // namespace
}  // namespace chaos
}  // namespace colsgd
