// Field tables for the event-count stats structs (docs/OBSERVABILITY.md §2).
//
// A stats struct whose fields are all uint64_t event counts, each exported
// as a registry counter of its own, declares one table beside it, found by
// argument-dependent lookup:
//
//   constexpr auto field_table(const RouterStats*) {
//     return std::to_array<obs::Field<RouterStats>>({
//         {&RouterStats::accepted, "router.accepted"}, ...});
//   }
//
// The field-wise sum and the registry absorb below are generated from that
// table, so a new counter is one row. Instantiating either checks that the
// table names every field of the struct exactly once.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace peace::obs {

template <class S>
struct Field {
  std::uint64_t S::*member;
  const char* name;  // the registry counter the field is exported as
};

namespace detail {

template <class S, std::size_t N>
constexpr bool rows_distinct(const std::array<Field<S>, N>& table) {
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = i + 1; j < N; ++j)
      if (table[i].member == table[j].member ||
          std::string_view(table[i].name) == table[j].name)
        return false;
  return true;
}

template <class S>
consteval auto checked_fields() {
  constexpr auto table = field_table(static_cast<const S*>(nullptr));
  static_assert(sizeof(S) == table.size() * sizeof(std::uint64_t),
                "a tabled stats struct holds only uint64_t event counts, "
                "one table row each");
  static_assert(rows_distinct(table),
                "a field or metric name appears twice in a field table");
  return table;
}

}  // namespace detail

template <class S>
inline constexpr auto kFields = detail::checked_fields<S>();

/// Field-wise sum. Every field is a uint64_t event count, so folding many
/// endpoints or shards gives the same total in any order.
template <class S>
S sum(S a, const S& b) {
  for (const Field<S>& f : kFields<S>) a.*f.member += b.*f.member;
  return a;
}

/// Mirrors every field into its registry counter. Counter::set of totals,
/// so publishing is idempotent: callers pass totals summed over endpoints
/// and may publish as often as they like.
template <class S>
void absorb(const S& totals, Registry& reg = Registry::global()) {
  for (const Field<S>& f : kFields<S>)
    reg.counter(f.name).set(totals.*f.member);
}

}  // namespace peace::obs
