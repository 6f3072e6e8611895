// Tiny command-line flag parser for benches and examples.
//
// Usage:
//   FlagParser flags;
//   int64_t n = 1000;
//   flags.AddInt64("n", &n, "row count");
//   flags.ParseOrExit(argc, argv);
//
// Accepts --name=value and --name value (booleans: --name or --name=value);
// --help prints usage and exits. A program's main calls ParseOrExit, so a
// bad flag prints the error and usage and exits with status 2.
#ifndef COLSGD_COMMON_FLAGS_H_
#define COLSGD_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace colsgd {

class FlagParser {
 public:
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);

  /// \brief Parses argv; unknown flags are an error. May call std::exit(0)
  /// for --help.
  Status Parse(int argc, char** argv);

  /// \brief Parse() for a program's main. Runs `validate`, when given, on
  /// the parsed values. If either fails, prints the error to stderr and the
  /// usage, and exits with status 2.
  void ParseOrExit(int argc, char** argv,
                   const std::function<Status()>& validate = nullptr);

  /// \brief Prints registered flags with defaults and help text.
  void PrintUsage(const std::string& program) const;

  /// \brief Every registered flag's name and current value, in
  /// registration order, formatted so that Parse reads the value back
  /// exactly.
  std::vector<std::pair<std::string, std::string>> Values() const;

 private:
  enum class Type { kInt64, kDouble, kBool, kString };
  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
  };

  Status SetValue(Flag* flag, const std::string& value);
  Flag* Find(const std::string& name);

  std::vector<Flag> flags_;
};

}  // namespace colsgd

#endif  // COLSGD_COMMON_FLAGS_H_
