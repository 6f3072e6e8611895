#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace colsgd {

namespace {
std::string BoolRepr(bool b) { return b ? "true" : "false"; }
}  // namespace

void FlagParser::AddInt64(const std::string& name, int64_t* target,
                          const std::string& help) {
  flags_.push_back(
      {name, Type::kInt64, target, help, std::to_string(*target)});
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           const std::string& help) {
  flags_.push_back(
      {name, Type::kDouble, target, help, std::to_string(*target)});
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  flags_.push_back({name, Type::kBool, target, help, BoolRepr(*target)});
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  flags_.push_back({name, Type::kString, target, help, *target});
}

FlagParser::Flag* FlagParser::Find(const std::string& name) {
  for (auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagParser::SetValue(Flag* flag, const std::string& value) {
  try {
    switch (flag->type) {
      case Type::kInt64:
        *static_cast<int64_t*>(flag->target) = std::stoll(value);
        break;
      case Type::kDouble:
        *static_cast<double*>(flag->target) = std::stod(value);
        break;
      case Type::kBool:
        if (value == "true" || value == "1") {
          *static_cast<bool*>(flag->target) = true;
        } else if (value == "false" || value == "0") {
          *static_cast<bool*>(flag->target) = false;
        } else {
          return Status::InvalidArgument("bad bool value for --" + flag->name +
                                         ": " + value);
        }
        break;
      case Type::kString:
        *static_cast<std::string*>(flag->target) = value;
        break;
    }
  } catch (const std::exception&) {
    return Status::InvalidArgument("cannot parse value for --" + flag->name +
                                   ": " + value);
  }
  return Status::OK();
}

void FlagParser::PrintUsage(const std::string& program) const {
  std::cout << "Usage: " << program << " [flags]\n";
  for (const auto& f : flags_) {
    std::cout << "  --" << f.name << " (default: " << f.default_repr << ")  "
              << f.help << "\n";
  }
}

std::vector<std::pair<std::string, std::string>> FlagParser::Values() const {
  std::vector<std::pair<std::string, std::string>> values;
  for (const auto& f : flags_) {
    std::string value;
    switch (f.type) {
      case Type::kInt64:
        value = std::to_string(*static_cast<const int64_t*>(f.target));
        break;
      case Type::kDouble: {
        const double v = *static_cast<const double*>(f.target);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.15g", v);
        if (std::strtod(buf, nullptr) != v) {
          std::snprintf(buf, sizeof(buf), "%.17g", v);
        }
        value = buf;
        break;
      }
      case Type::kBool:
        value = BoolRepr(*static_cast<const bool*>(f.target));
        break;
      case Type::kString:
        value = *static_cast<const std::string*>(f.target);
        break;
    }
    values.emplace_back(f.name, std::move(value));
  }
  return values;
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      Flag* flag = Find(name);
      if (flag != nullptr && flag->type == Type::kBool) {
        value = "true";  // --flag form for booleans
      } else {
        if (i + 1 >= argc) {
          return Status::InvalidArgument("missing value for --" + name);
        }
        value = argv[++i];
      }
    }
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    COLSGD_RETURN_NOT_OK(SetValue(flag, value));
  }
  return Status::OK();
}

void FlagParser::ParseOrExit(int argc, char** argv,
                             const std::function<Status()>& validate) {
  Status st = Parse(argc, argv);
  if (st.ok() && validate) st = validate();
  if (st.ok()) return;
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  PrintUsage(argv[0]);
  std::exit(2);
}

}  // namespace colsgd
