// Minimal command-line flag parsing for benches and examples.
//
// Supports --name=value, --name value, and bare boolean switches (--full).
// Unrecognized positional arguments are an error: bench binaries take flags
// only, so typos fail loudly instead of silently running the default workload.
// Binaries that declare their flag vocabulary up front should use
// parse_or_exit(), which turns bad positional arguments, unknown --flags
// and malformed values (--nodes=abc, caught later at the get_int/get_double
// call) into a usage message on stderr plus exit(2) instead of an uncaught
// throw. Flags built directly (library callers) throw nc::CheckError
// instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nc {

class Flags {
 public:
  /// Parses argv; throws nc::CheckError on malformed input.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& default_value) const;
  /// Numeric getters reject an empty, non-finite or out-of-range value.
  [[nodiscard]] double get_double(const std::string& name, double default_value) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t default_value) const;
  /// get_int narrowed to int; a value outside int's range is malformed.
  [[nodiscard]] int get_int32(const std::string& name, int default_value) const;
  /// A bare --flag or --flag=true/1 is true; --flag=false/0 is false.
  [[nodiscard]] bool get_bool(const std::string& name, bool default_value) const;

  /// Comma-separated list of doubles, e.g. --thresholds=1,2,4,8.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, const std::vector<double>& default_value) const;

  /// Name of the program (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Parsed flag names not present in `allowed`, in sorted order.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& allowed) const;

  /// Throws nc::CheckError naming every parsed flag not in `allowed`.
  void check_known(const std::vector<std::string>& allowed) const;

  /// One-line usage message listing the allowed flags.
  [[nodiscard]] static std::string usage(const std::string& program,
                                         const std::vector<std::string>& allowed);

  /// Parses argv and validates every flag against `allowed`. On malformed
  /// input (e.g. a bare positional argument) or an unknown flag, prints the
  /// error plus a usage message to stderr and exits with status 2. The
  /// returned Flags do the same when a getter meets a malformed value.
  [[nodiscard]] static Flags parse_or_exit(int argc, const char* const* argv,
                                           const std::vector<std::string>& allowed);

 private:
  /// Throws nc::CheckError, or prints `msg` and the usage line and exits 2
  /// for Flags from parse_or_exit.
  [[noreturn]] void bad_value(const std::string& msg) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  /// Usage line printed on a bad value; empty for library callers.
  std::string usage_;
};

}  // namespace nc
