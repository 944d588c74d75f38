#include "util/flags.h"

#include "util/logging.h"
#include "util/strings.h"

namespace dace {

StatusOr<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

const std::string* Flags::Lookup(std::string_view key) const {
  read_.emplace(key);
  const auto it = values_.find(std::string(key));
  return it == values_.end() ? nullptr : &it->second;
}

void Flags::DieOnUnreadKeys() const {
  std::string unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unread += " --" + key;
  }
  DACE_CHECK(unread.empty()) << "unknown flag(s):" << unread;
}

int64_t Flags::GetInt(std::string_view key, int64_t default_value) const {
  const std::string* value = Lookup(key);
  if (value == nullptr) return default_value;
  auto parsed = ParseInt64(*value);
  DACE_CHECK(parsed.ok()) << "flag --" << key << ": malformed integer value '"
                          << *value << "'";
  return *parsed;
}

double Flags::GetDouble(std::string_view key, double default_value) const {
  const std::string* value = Lookup(key);
  if (value == nullptr) return default_value;
  auto parsed = ParseDouble(*value);
  DACE_CHECK(parsed.ok()) << "flag --" << key << ": malformed number value '"
                          << *value << "'";
  return *parsed;
}

bool Flags::GetBool(std::string_view key, bool default_value) const {
  const std::string* value = Lookup(key);
  if (value == nullptr) return default_value;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  DACE_CHECK(false) << "flag --" << key << ": malformed boolean value '" << v
                    << "' (expected true/1/yes or false/0/no)";
  return default_value;
}

std::string Flags::GetString(std::string_view key,
                             std::string_view default_value) const {
  const std::string* value = Lookup(key);
  return value == nullptr ? std::string(default_value) : *value;
}

}  // namespace dace
