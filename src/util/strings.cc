#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cctype>

namespace dace {

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(input.substr(start));
      return pieces;
    }
    pieces.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  // One pass into a stack buffer covers nearly every call; only output that
  // does not fit pays a second, exactly sized pass.
  char buffer[256];
  const int needed = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(buffer)) {
    out.assign(buffer, static_cast<size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

StatusOr<int64_t> ParseInt64(std::string_view text) {
  const std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not an integer: " + buffer);
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> ParseDouble(std::string_view text) {
  const std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return Status::InvalidArgument("empty double");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not a double: " + buffer);
  }
  return value;
}

}  // namespace dace
