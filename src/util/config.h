// A small INI-style configuration format for virtual-grid descriptions.
//
// Sections are typed and named:
//
//   [host vm0]
//   ip    = 1.11.11.1
//   cpu   = 533MHz
//   memory = 1GB
//   map   = phys0
//
//   [link lan0]
//   from = vm0
//   to   = switch0
//   bandwidth = 100Mbps
//   latency   = 0.1ms
//
// '#' and ';' start comments. Keys are case-insensitive; values keep case.
// Duplicate keys within a section are an error (configs are hand-written and
// silent last-wins would hide mistakes).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mg::util {

/// One typed, named section of a config file.
class ConfigSection {
 public:
  ConfigSection(std::string type, std::string name) : type_(std::move(type)), name_(std::move(name)) {}

  const std::string& type() const { return type_; }
  const std::string& name() const { return name_; }

  bool has(std::string_view key) const;

  /// Required accessors throw ConfigError when the key is missing or the
  /// value does not parse. getDouble also rejects nan and inf, naming the
  /// key.
  const std::string& getString(std::string_view key) const;
  double getDouble(std::string_view key) const;
  std::int64_t getInt(std::string_view key) const;
  bool getBool(std::string_view key) const;
  double getBandwidth(std::string_view key) const;  // bits/sec
  double getTime(std::string_view key) const;       // seconds
  std::int64_t getSize(std::string_view key) const; // bytes
  double getComputeRate(std::string_view key) const;  // ops/sec

  /// Optional accessors return the fallback when the key is missing.
  std::string getString(std::string_view key, std::string_view fallback) const;
  double getDouble(std::string_view key, double fallback) const;
  std::int64_t getInt(std::string_view key, std::int64_t fallback) const;
  bool getBool(std::string_view key, bool fallback) const;

  /// All keys in file order.
  std::vector<std::string> keys() const;

  void set(std::string_view key, std::string_view value);

 private:
  const std::string* find(std::string_view key) const;

  std::string type_;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key (lowered), value
};

/// A parsed configuration: an ordered list of sections.
class Config {
 public:
  Config() = default;

  /// Parse from text. Throws ParseError / ConfigError on malformed input.
  static Config parse(std::string_view text);

  /// Parse the file at `path`. Throws on I/O failure.
  static Config parseFile(const std::string& path);

  /// All sections, in file order.
  const std::vector<ConfigSection>& sections() const { return sections_; }

  /// All sections of the given type, in file order.
  std::vector<const ConfigSection*> sectionsOfType(std::string_view type) const;

  /// The unique section with this type and name; throws if absent.
  const ConfigSection& section(std::string_view type, std::string_view name) const;

  /// The unique section with this type and name, or nullptr.
  const ConfigSection* findSection(std::string_view type, std::string_view name) const;

  /// Append a section (used by programmatic construction in tests/examples).
  ConfigSection& addSection(std::string type, std::string name);

 private:
  std::vector<ConfigSection> sections_;
};

}  // namespace mg::util
