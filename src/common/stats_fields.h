// Copyright 2026 The OCTOPUS Reproduction Authors
// Shared pieces of the stats-record field tables. Each stats record
// declares its counters once, one line each, in an X-macro table beside
// the struct; fields, merge, the OCTP codec, wire-size checks and
// /metrics are expanded from it (docs/DEVELOPING.md, "Adding a counter").
// Every table line starts `(type, name, ...)`, so the consumers below
// work on any table.
#ifndef OCTOPUS_COMMON_STATS_FIELDS_H_
#define OCTOPUS_COMMON_STATS_FIELDS_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace octopus {

/// How a counter folds when two stats records merge.
enum class FieldMerge { kSum, kMax };

template <typename T>
constexpr T MergeField(FieldMerge rule, T into, T from) {
  return rule == FieldMerge::kMax ? std::max(into, from) : into + from;
}

/// Fixed OCTP width of a counter: signed nanos as i64, counts as u64.
template <typename T>
using WireInt = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;

}  // namespace octopus

/// Consumer for the table lines a use site leaves out.
#define OCTOPUS_STATS_SKIP(...)
/// A zero-initialized field of the line's type.
#define OCTOPUS_STATS_DECLARE(type, name, ...) type name = 0;
/// The same field at its wire width.
#define OCTOPUS_STATS_WIRE_DECLARE(type, name, ...) \
  ::octopus::WireInt<type> name = 0;
/// Folds `other.name` into `name` by the line's merge rule, inside a
/// `Merge(const Record& other)` member.
#define OCTOPUS_STATS_MERGE(type, name, merge, ...) \
  name = ::octopus::MergeField(::octopus::FieldMerge::merge, name, other.name);

#endif  // OCTOPUS_COMMON_STATS_FIELDS_H_
