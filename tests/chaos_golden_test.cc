// Chaos golden test: every schedule the five CI chaos command lines run
// (.github/workflows/ci.yml) is pinned in tests/golden/chaos_fingerprints.txt,
// one line per schedule: scenario, engine, model, seed, verdict, fingerprint
// and schedule description, as `colsgd_chaos --verbose` prints them. A
// refactor of the harness must keep every draw, verdict and fingerprint
// bit-identical. Regenerate the file only after an *intentional* change to
// a generator or a fingerprint with
//
//   COLSGD_REGEN_GOLDEN=1 ./chaos_golden_test
//
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos_cli.h"

#ifndef COLSGD_TEST_GOLDEN_DIR
#error "COLSGD_TEST_GOLDEN_DIR must be defined by the build"
#endif

namespace colsgd {
namespace chaos {
namespace {

const char kGoldenPath[] = COLSGD_TEST_GOLDEN_DIR "/chaos_fingerprints.txt";

struct CiCommand {
  std::vector<std::string> args;
  std::string summary;  // the last line it prints
};

// The five CI command lines, verbatim.
const CiCommand kCiCommands[] = {
    {{"--seeds", "0..31", "--engines", "all", "--iterations", "12",
      "--workers", "4", "--data_rows", "800", "--data_features", "150",
      "--artifact", "chaos_repro.json"},
     "chaos(train): 160 schedule(s), 0 failure(s)"},
    {{"--scenario", "membership", "--seeds", "0..15", "--engines",
      "columnsgd,petuum,mxnet", "--iterations", "12", "--workers", "4",
      "--data_rows", "800", "--data_features", "150", "--artifact",
      "membership_repro.json"},
     "chaos(membership): 48 schedule(s), 0 failure(s)"},
    {{"--scenario", "ssp", "--seeds", "0..15", "--engines", "all",
      "--iterations", "12", "--workers", "4", "--data_rows", "800",
      "--data_features", "150", "--artifact", "ssp_repro.json"},
     "chaos(ssp): 48 schedule(s), 0 failure(s)"},
    {{"--scenario", "serving", "--seeds", "0..15", "--artifact",
      "serving_chaos_repro.json"},
     "chaos(serving): 16 schedule(s), 0 failure(s)"},
    {{"--scenario", "serving_fleet", "--seeds", "0..63", "--artifact",
      "fleet_chaos_repro.json"},
     "chaos(serving_fleet): 64 schedule(s), 0 failure(s)"},
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ChaosGoldenTest, CiSchedulesMatchCheckedInFingerprints) {
  std::string lines;
  for (const CiCommand& command : kCiCommands) {
    std::vector<std::string> args = command.args;
    args.push_back("--verbose");
    std::string out;
    EXPECT_EQ(RunChaosCli(args, &out), 0) << command.summary;
    const std::vector<std::string> printed = SplitLines(out);
    ASSERT_FALSE(printed.empty());
    EXPECT_EQ(printed.back(), command.summary);
    for (const std::string& line : printed) {
      if (line.find("] seed ") != std::string::npos) lines += line + "\n";
    }
  }
  if (std::getenv("COLSGD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << kGoldenPath;
    out << lines;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }
  const std::vector<std::string> golden =
      SplitLines(ReadFileOrEmpty(kGoldenPath));
  ASSERT_EQ(golden.size(), 336u)
      << "missing or truncated golden file " << kGoldenPath
      << "; run with COLSGD_REGEN_GOLDEN=1 to create it";
  const std::vector<std::string> got = SplitLines(lines);
  ASSERT_EQ(got.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "schedule " << i << " diverged";
  }
}

}  // namespace
}  // namespace chaos
}  // namespace colsgd
