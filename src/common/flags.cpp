#include "common/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/check.hpp"

namespace nc {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

// strtod over the whole of `s`; false on an empty, partial, non-finite or
// out-of-range value (strtod takes "" as 0 and accepts "nan" and "inf").
bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0' && errno != ERANGE && std::isfinite(out);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  NC_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    NC_CHECK_MSG(looks_like_flag(arg), "expected --flag, got: " + arg);
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare switch
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

double Flags::get_double(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double v = 0.0;
  if (!parse_double(it->second, v)) bad_value("bad double for --" + name + ": " + it->second);
  return v;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE)
    bad_value("bad integer for --" + name + ": " + it->second);
  return v;
}

int Flags::get_int32(const std::string& name, int default_value) const {
  const std::int64_t v = get_int(name, default_value);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    bad_value("bad integer for --" + name + ": " + values_.at(name) + " (outside int)");
  return static_cast<int>(v);
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  bad_value("bad boolean for --" + name + ": " + v);
}

std::vector<double> Flags::get_double_list(
    const std::string& name, const std::vector<double>& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  // Every comma-separated element must parse, so "", "1," and "1,,2" fail.
  const std::string& list = it->second;
  std::vector<double> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = list.find(',', start);
    double v = 0.0;
    if (!parse_double(list.substr(start, comma - start), v))
      bad_value("bad list element for --" + name + ": " + list);
    out.push_back(v);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

std::vector<std::string> Flags::unknown_flags(
    const std::vector<std::string>& allowed) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_)  // map order => sorted
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end())
      out.push_back(name);
  return out;
}

void Flags::check_known(const std::vector<std::string>& allowed) const {
  const std::vector<std::string> unknown = unknown_flags(allowed);
  if (unknown.empty()) return;
  std::string msg = "unknown flag";
  if (unknown.size() > 1) msg += 's';
  for (const std::string& name : unknown) msg += " --" + name;
  throw CheckError(msg);
}

std::string Flags::usage(const std::string& program,
                         const std::vector<std::string>& allowed) {
  std::string out = "usage: " + program;
  for (const std::string& name : allowed) out += " [--" + name + "=<value>]";
  return out;
}

Flags Flags::parse_or_exit(int argc, const char* const* argv,
                           const std::vector<std::string>& allowed) {
  const std::string usage_line = usage(argc >= 1 ? argv[0] : "prog", allowed);
  try {
    Flags flags(argc, argv);
    flags.check_known(allowed);
    flags.usage_ = usage_line;
    return flags;
  } catch (const CheckError& e) {
    std::cerr << e.what() << '\n' << usage_line << '\n';
    std::exit(2);
  }
}

void Flags::bad_value(const std::string& msg) const {
  if (usage_.empty()) throw CheckError(msg);
  std::cerr << msg << '\n' << usage_ << '\n';
  std::exit(2);
}

}  // namespace nc
