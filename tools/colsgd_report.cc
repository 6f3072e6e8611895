// colsgd_report: compares benchmark telemetry (BENCH_*.json suites, written
// by the bench binaries via bench::BenchRunner) against checked-in baselines
// and fails on regressions. This is the CI perf/convergence gate. Examples:
//
//   colsgd_report bench/baselines/BENCH_fig8_convergence.json
//                 BENCH_fig8_convergence.json
//   colsgd_report bench/baselines .          # pair up BENCH_*.json by name
//   colsgd_report --check BENCH_*.json       # schema validation only
//   colsgd_report --threshold 0.05 --rule final_loss=0.02 old.json new.json
//
// Exit codes: 0 no regression, 1 regression detected, 2 usage or parse error.
//
// The flag grammar is hand-rolled (common/flags.h rejects positional
// arguments, and the two suite paths are naturally positional).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/bench/report.h"

namespace colsgd {
namespace {

namespace fs = std::filesystem;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] OLD NEW\n"
      "       %s --check FILE...\n"
      "\n"
      "OLD and NEW are BENCH_*.json files, or directories holding them\n"
      "(paired up by file name). All metrics are lower-is-better; NEW\n"
      "regresses when new > old * (1 + threshold) and the delta exceeds\n"
      "the absolute epsilon.\n"
      "\n"
      "options:\n"
      "  --check            validate files (schema + parse) instead of\n"
      "                     comparing; exits 2 on the first invalid file\n"
      "  --threshold F      global relative threshold (default 0.10)\n"
      "  --abs_epsilon F    absolute slack, guards near-zero metrics\n"
      "                     (default 1e-9)\n"
      "  --rule SUB=F       per-metric threshold: applies to metrics whose\n"
      "                     name contains SUB; repeatable, first match wins\n"
      "  (each F is a finite number, 0 or above)\n"
      "exit codes: 0 ok, 1 regression, 2 usage/parse error\n",
      argv0, argv0);
  return 2;
}

// A threshold or epsilon: a finite number, 0 or above. NaN or infinity
// would make every comparison false and turn the gate off.
bool ParseLimitArg(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str() &&
         std::isfinite(*value) && *value >= 0.0;
}

/// BENCH_*.json entries of `dir`, sorted by file name.
std::vector<std::string> ListBenchFiles(const fs::path& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

int CheckFiles(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    std::fprintf(stderr, "--check: no files given\n");
    return 2;
  }
  for (const std::string& path : paths) {
    Result<BenchSuite> suite = ReadBenchSuiteFile(path);
    if (!suite.ok()) {
      std::fprintf(stderr, "%s\n", suite.status().ToString().c_str());
      return 2;
    }
    std::printf("%s: ok (suite '%s', %zu results)\n", path.c_str(),
                suite->suite.c_str(), suite->results.size());
  }
  return 0;
}

/// Compares one old/new file pair; prints the report. Returns 0/1/2.
int CompareFiles(const std::string& old_path, const std::string& new_path,
                 const ReportOptions& options) {
  Result<BenchSuite> old_suite = ReadBenchSuiteFile(old_path);
  if (!old_suite.ok()) {
    std::fprintf(stderr, "%s\n", old_suite.status().ToString().c_str());
    return 2;
  }
  Result<BenchSuite> new_suite = ReadBenchSuiteFile(new_path);
  if (!new_suite.ok()) {
    std::fprintf(stderr, "%s\n", new_suite.status().ToString().c_str());
    return 2;
  }
  const SuiteReport report = CompareSuites(*old_suite, *new_suite, options);
  std::printf("comparing %s (old) vs %s (new)\n", old_path.c_str(),
              new_path.c_str());
  std::fputs(RenderReport(report, *new_suite).c_str(), stdout);
  return report.regression ? 1 : 0;
}

int Run(int argc, char** argv) {
  ReportOptions options;
  bool check_mode = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (arg == "--check") {
      check_mode = true;
    } else if (arg == "--threshold") {
      const char* value = next("--threshold");
      if (value == nullptr || !ParseLimitArg(value, &options.threshold)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--abs_epsilon") {
      const char* value = next("--abs_epsilon");
      if (value == nullptr || !ParseLimitArg(value, &options.abs_epsilon)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--rule") {
      const char* value = next("--rule");
      if (value == nullptr) return Usage(argv[0]);
      const std::string rule_text = value;
      const size_t eq = rule_text.rfind('=');
      ThresholdRule rule;
      if (eq == std::string::npos || eq == 0 ||
          !ParseLimitArg(rule_text.substr(eq + 1), &rule.threshold)) {
        std::fprintf(stderr, "--rule wants SUBSTRING=THRESHOLD, got '%s'\n",
                     rule_text.c_str());
        return Usage(argv[0]);
      }
      rule.substring = rule_text.substr(0, eq);
      options.rules.push_back(std::move(rule));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }

  if (check_mode) return CheckFiles(positional);
  if (positional.size() != 2) return Usage(argv[0]);

  const fs::path old_path = positional[0];
  const fs::path new_path = positional[1];
  const bool old_is_dir = fs::is_directory(old_path);
  const bool new_is_dir = fs::is_directory(new_path);
  if (old_is_dir != new_is_dir) {
    std::fprintf(stderr,
                 "OLD and NEW must both be files or both directories\n");
    return 2;
  }
  if (!old_is_dir) {
    return CompareFiles(old_path.string(), new_path.string(), options);
  }

  // Directory trajectory: every baseline suite must exist and pass in NEW;
  // suites only present in NEW are informational.
  const std::vector<std::string> old_files = ListBenchFiles(old_path);
  const std::vector<std::string> new_files = ListBenchFiles(new_path);
  if (old_files.empty()) {
    std::fprintf(stderr, "no BENCH_*.json files under %s\n",
                 old_path.string().c_str());
    return 2;
  }
  int exit_code = 0;
  for (const std::string& name : old_files) {
    if (!fs::exists(new_path / name)) {
      std::printf("MISSING suite %s: present in %s, absent in %s\n",
                  name.c_str(), old_path.string().c_str(),
                  new_path.string().c_str());
      exit_code = std::max(exit_code, 1);
      continue;
    }
    const int rc = CompareFiles((old_path / name).string(),
                                (new_path / name).string(), options);
    exit_code = std::max(exit_code, rc);
    std::printf("\n");
  }
  for (const std::string& name : new_files) {
    if (std::find(old_files.begin(), old_files.end(), name) ==
        old_files.end()) {
      std::printf("note: suite %s has no baseline (not gated)\n",
                  name.c_str());
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
