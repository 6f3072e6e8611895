// Runs the colsgd_chaos command line in-process for the chaos tests.
#ifndef COLSGD_TESTS_CHAOS_CLI_H_
#define COLSGD_TESTS_CHAOS_CLI_H_

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"

namespace colsgd {
namespace chaos {

/// \brief Runs `colsgd_chaos args...` over the scenarios `make` builds;
/// returns the exit status and stores what it printed to stdout in `out`
/// (and to stderr in `err`).
inline int RunChaosCli(const std::vector<std::string>& args, std::string* out,
                       std::string* err = nullptr,
                       const ScenarioFactory& make = MakeScenario) {
  std::vector<std::string> storage = {"colsgd_chaos"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int status =
      RunChaos(static_cast<int>(argv.size()), argv.data(), make);
  *out = ::testing::internal::GetCapturedStdout();
  const std::string printed_err = ::testing::internal::GetCapturedStderr();
  if (err != nullptr) *err = printed_err;
  return status;
}

inline std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace chaos
}  // namespace colsgd

#endif  // COLSGD_TESTS_CHAOS_CLI_H_
