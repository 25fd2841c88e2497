// Common scalar types and sentinels for the binary-trie universe.
#pragma once

#include <cstdint>
#include <limits>

namespace lfbt {

/// Key type: keys live in U = {0, ..., u-1}. Signed so that -1 can mean "no
/// predecessor" exactly as in the paper.
using Key = int64_t;

/// "No predecessor" / empty-set answer (paper's -1).
inline constexpr Key kNoKey = -1;

/// RelaxedPredecessor's ⊥: "a concurrent update prevented an answer".
inline constexpr Key kBottom = -2;

/// Unset delPred2 (the paper's ⊥ for that field).
inline constexpr Key kUnsetPred = -3;

/// Sentinel keys for the announcement lists (paper's ±∞).
inline constexpr Key kPosInf = std::numeric_limits<Key>::max();
inline constexpr Key kNegInf = std::numeric_limits<Key>::min();

enum class NodeType : uint8_t { kIns = 0, kDel = 1 };

/// Query sides. Every per-direction field of the full trie is an array
/// indexed by side: index kPredSide holds the paper's Predecessor
/// machinery (RU-ALL position, notification threshold, U-ALL extremum
/// below the key), index kSuccSide its key-order mirror (U-ALL
/// position, extremum above the key).
enum : int { kPredSide = 0, kSuccSide = 1, kNumSides = 2 };

}  // namespace lfbt
