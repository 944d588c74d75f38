#ifndef DACE_UTIL_FLAGS_H_
#define DACE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dace {

// Minimal --key=value command-line parser used by the benchmark and example
// binaries (we avoid a third-party flags dependency). Unknown keys are
// accepted; a malformed value of a key the binary reads fails fast.
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

  bool Has(std::string_view key) const {
    return values_.count(std::string(key)) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dace

#endif  // DACE_UTIL_FLAGS_H_
