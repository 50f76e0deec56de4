#pragma once

// A tiny command-line flag parser for the example binaries:
// --name=value or --name value; --flag alone is boolean true.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rna::common {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// The first given flag, in name order, that `known` does not list;
  /// std::nullopt when every given flag is known.
  std::optional<std::string> Unknown(
      std::initializer_list<std::string_view> known) const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& Positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rna::common
