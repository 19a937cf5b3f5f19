#pragma once
// Deterministic names for TEST_P cases whose parameter is a plain struct.
//
// gtest names a case it cannot print by the parameter's byte dump
// ("24-byte object <02-00 00-00 ...>"), and gtest_discover_tests turns that
// into the ctest name. The dump includes the struct's padding, whose bytes
// differ from build to build. print_field_bytes prints the same dump with
// every byte outside the listed fields zeroed, so a case keeps its name's
// form and field bytes and loses only the bytes that varied.
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

namespace tcmp::test {

/// Byte dump of `value` in gtest's format, holding only `fields` (each a
/// member of `value`); every other byte prints as 00.
template <class T, class... Field>
void print_field_bytes(const T& value, std::ostream* os,
                       const Field&... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto put = [&](const auto& field) {
    const auto* p = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (p - base), p, sizeof(field));
  };
  (put(fields), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace tcmp::test
