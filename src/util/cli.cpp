#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/fatal.hpp"

namespace opalsim::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is itself an option (or absent):
    // then it's a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[i + 1];
      ++i;
    } else {
      options_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  queried_[key] = true;
  return options_.count(key) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  queried_[key] = true;
  auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long CliArgs::get_long(const std::string& key, long fallback) const {
  auto v = get(key);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long out = std::strtol(v->c_str(), &end, 10);
  if (end != v->c_str() + v->size() || errno == ERANGE) {
    throw ConfigError("cli", "--" + key + " wants an integer, got '" + *v +
                                 "'");
  }
  return out;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v->c_str(), &end);
  if (end != v->c_str() + v->size() || errno == ERANGE) {
    throw ConfigError("cli", "--" + key + " wants a number, got '" + *v +
                                 "'");
  }
  return out;
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : options_) {
    if (queried_.count(k) == 0) out.push_back(k);
  }
  return out;
}

}  // namespace opalsim::util
