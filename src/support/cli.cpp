#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace scmd {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known) {
  auto accepted = [&](const std::string& name) {
    return known.empty() ||
           std::find(known.begin(), known.end(), name) != known.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name, value;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // --name value form: consume next token if it is not itself a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value.assign(1, '1');
      }
    }
    SCMD_REQUIRE(accepted(name), "unknown flag --" + name);
    flags_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  SCMD_REQUIRE(end && *end == '\0', "flag --" + name + " is not an integer");
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  SCMD_REQUIRE(end && *end == '\0', "flag --" + name + " is not a number");
  return v;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  return !(v == "0" || v == "false" || v == "no" || v == "off");
}

}  // namespace scmd
