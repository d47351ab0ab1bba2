// One introspection walk per layer (DESIGN.md §9, §10).
//
// Every layer that has something to show implements
//
//     void inspect(obs::Inspector& in) const;
//
// and reports its view at in.now() in two forms:
//
//   * sampled series — level(name, v) for a value read as-is (queue depth,
//     live flows) and total(name, cumulative) for a non-decreasing total
//     (busy-seconds, bytes, events) whose per-second rate is the series;
//   * state fields — key/u64/i64/f64/boolean/str, the typed fields that
//     identify the layer's dynamic state.
//
// Two consumers read the same walk. The TelemetrySampler (obs/sampler.h)
// records levels as they are, totals as rates, and ignores fields. The
// StateWriter below folds every call, series included, into the explorer's
// state digest. Inspecting is strictly read-only and deterministic: iterate
// containers in a fixed order and never perturb simulated state.
//
// Field walks can be costly (sorting the event heap, dumping the GIS), so a
// layer skips them when wantsFields() is false; the sampler says false.
//
// The digest is streaming FNV-1a-64 over a canonical byte encoding: keys
// and strings as bytes plus a separator, integers as their 8 bytes, doubles
// by bit pattern. It is the snapshot's identity (mc/snapshot.h): process
// stacks are not copied, so a snapshot is {virtual time, digest, replay
// recipe} and restore replays, then verifies the digest. Digests are conservative: the
// explorer treats equal digests as equal states, which is sound because
// every folded field is part of the deterministic replay state (up to a
// 2^-64 hash collision, the standard stateless-model-checking trade-off).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mg::obs {

class Inspector {
 public:
  virtual ~Inspector() = default;

  /// The time the view is taken at (ns): the sampler's tick or the digest's
  /// pause point. Resources close open busy intervals against it.
  std::int64_t now() const { return now_; }
  /// False when the consumer ignores fields; layers then skip field walks.
  bool wantsFields() const { return wants_fields_; }

  // --- sampled series ---
  virtual void level(std::string_view name, double v) = 0;
  virtual void total(std::string_view name, double cumulative) = 0;
  /// The same, for the series named prefix + suffix (per-link, per-cluster
  /// families), without building the name on every call.
  void level(std::string_view prefix, std::string_view suffix, double v) {
    level(join(prefix, suffix), v);
  }
  void total(std::string_view prefix, std::string_view suffix, double cumulative) {
    total(join(prefix, suffix), cumulative);
  }

  // --- state fields (no-ops unless the consumer folds them) ---
  /// Open a named section or field.
  virtual void key(std::string_view /*name*/) {}
  virtual void u64(std::string_view /*name*/, std::uint64_t /*v*/) {}
  virtual void i64(std::string_view /*name*/, std::int64_t /*v*/) {}
  virtual void f64(std::string_view /*name*/, double /*v*/) {}
  virtual void str(std::string_view /*name*/, std::string_view /*v*/) {}
  void boolean(std::string_view name, bool v) { u64(name, v ? 1 : 0); }

 protected:
  Inspector(std::int64_t now, bool wants_fields) : now_(now), wants_fields_(wants_fields) {}
  Inspector(const Inspector&) = delete;
  Inspector& operator=(const Inspector&) = delete;

  std::int64_t now_;

 private:
  std::string_view join(std::string_view prefix, std::string_view suffix) {
    name_.assign(prefix);
    name_.append(suffix);
    return name_;
  }

  bool wants_fields_;
  std::string name_;  // reused for prefix + suffix names
};

/// The state digest: folds every inspect call, series included, into one
/// FNV-1a-64 value.
class StateWriter final : public Inspector {
 public:
  explicit StateWriter(std::int64_t now) : Inspector(now, /*wants_fields=*/true) {}

  using Inspector::level;
  using Inspector::total;
  void level(std::string_view name, double v) override { f64(name, v); }
  void total(std::string_view name, double cumulative) override { f64(name, cumulative); }

  /// Keys are folded too, so two captures agree only when their key
  /// sequences agree.
  void key(std::string_view name) override;
  void u64(std::string_view name, std::uint64_t v) override;
  void i64(std::string_view name, std::int64_t v) override;
  void f64(std::string_view name, double v) override;  // folded by bit pattern
  void str(std::string_view name, std::string_view v) override;

  std::uint64_t digest() const { return hash_; }

 private:
  void bytes(const void* data, std::size_t n);

  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace mg::obs
