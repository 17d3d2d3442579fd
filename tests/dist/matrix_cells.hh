/**
 * @file
 * Cells of the strategy matrices (chaos, sharded chaos, pipeline):
 * the five training strategies plus the sync PS at four shards, so
 * multi-shard recovery and precision stay covered. Cell ids follow
 * StrategyKind's order with the sharded PS last, which keeps the
 * parameterized test names stable.
 */

#ifndef ISW_TESTS_DIST_MATRIX_CELLS_HH
#define ISW_TESTS_DIST_MATRIX_CELLS_HH

#include <gtest/gtest.h>

#include "dist/strategy.hh"

namespace isw::dist {

enum class MatrixCell {
    kSyncPs,
    kSyncAr,
    kSyncIsw,
    kAsyncPs,
    kAsyncIsw,
    kShardedPs, ///< kSyncPs with ps_shards = 4
};

inline StrategyKind
strategyOf(MatrixCell c)
{
    return c == MatrixCell::kShardedPs ? StrategyKind::kSyncPs
                                       : static_cast<StrategyKind>(c);
}

inline std::size_t
psShardsOf(MatrixCell c)
{
    return c == MatrixCell::kShardedPs ? 4 : 1;
}

inline const char *
cellName(const ::testing::TestParamInfo<MatrixCell> &info)
{
    switch (info.param) {
      case MatrixCell::kSyncPs: return "SyncPs";
      case MatrixCell::kSyncAr: return "SyncAr";
      case MatrixCell::kSyncIsw: return "SyncIsw";
      case MatrixCell::kAsyncPs: return "AsyncPs";
      case MatrixCell::kAsyncIsw: return "AsyncIsw";
      case MatrixCell::kShardedPs: return "ShardedPs";
    }
    return "?";
}

/** Every cell, in the matrices' historical order. */
inline auto
allCells()
{
    return ::testing::Values(MatrixCell::kSyncPs, MatrixCell::kSyncAr,
                             MatrixCell::kSyncIsw, MatrixCell::kShardedPs,
                             MatrixCell::kAsyncPs, MatrixCell::kAsyncIsw);
}

} // namespace isw::dist

#endif // ISW_TESTS_DIST_MATRIX_CELLS_HH
