/**
 * @file
 * 64-bit FNV-1a over a byte range: the checksum of every on-disk format
 * (result-cache journal records, dataset and labeling-checkpoint footers).
 *
 * Changing this function invalidates every file written before the
 * change, so its output is pinned by golden-value tests.
 */
#pragma once

#include <cstddef>

#include "util/common.hpp"

namespace waco {

constexpr u64 kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
constexpr u64 kFnv1aPrime = 0x100000001b3ull;

/** FNV-1a-64 of @p n bytes at @p data. */
inline u64
fnv1a64(const char* data, std::size_t n)
{
    u64 h = kFnv1aOffsetBasis;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= kFnv1aPrime;
    }
    return h;
}

} // namespace waco
