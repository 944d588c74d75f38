#ifndef DACE_UTIL_FLAGS_H_
#define DACE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dace {

// Minimal --key=value command-line parser used by the benchmark and example
// binaries (we avoid a third-party flags dependency). A malformed value of a
// key the binary reads fails fast; unknown keys are accepted unless the
// binary opts in to DieOnUnreadKeys. The accessors record which keys were
// read, so one Flags object is not for concurrent use.
class Flags {
 public:
  // Parses argv; accepts "--key=value" and "--key value". A bare "--key" is
  // treated as boolean true.
  static StatusOr<Flags> Parse(int argc, char** argv);

  // Typed accessors return `default_value` when the key is absent. A
  // present but malformed value (`--epochs=1O`, `--trace=ture`) is a
  // DACE_CHECK failure naming the key and the value, never a silent
  // fallback. GetBool accepts true/1/yes and false/0/no.
  int64_t GetInt(std::string_view key, int64_t default_value) const;
  double GetDouble(std::string_view key, double default_value) const;
  bool GetBool(std::string_view key, bool default_value) const;
  std::string GetString(std::string_view key,
                        std::string_view default_value) const;

  bool Has(std::string_view key) const { return Lookup(key) != nullptr; }

  // Opt-in strictness: a DACE_CHECK failure naming every given key that no
  // accessor above has asked for. Call it once the binary has read all of
  // its flags, so a stale or misspelled flag fails loudly instead of
  // silently running the default.
  void DieOnUnreadKeys() const;

 private:
  // The value of `key`, or nullptr if absent; records `key` as read.
  const std::string* Lookup(std::string_view key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string, std::less<>> read_;
};

}  // namespace dace

#endif  // DACE_UTIL_FLAGS_H_
