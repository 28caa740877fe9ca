// TiledMatrix<T>: an m-by-n matrix partitioned into tiles with a 2D
// block-cyclic ownership map over a p-by-q process grid — the data
// distribution SLATE (and ScaLAPACK) use (paper Sections 1, 5).
//
// Storage is shared (SLATE-style): sub() returns a view onto the same tiles,
// so algorithms can operate on trailing submatrices, panels, and the stacked
// [W1; W2] workspaces of QDWH without copies. Tile sizes may vary per block
// row/column, which lets the (m+n)-by-n stacked QDWH workspace keep A's tile
// boundaries in its top block rows even when m % nb != 0.
//
// The ownership map (owner_rank) is advisory on this shared-memory build:
// the task runtime executes tiles in place and no library code reads the
// map. Distributed execution uses comm::DistMatrix, whose own block-cyclic
// map the src/comm/ virtual-rank kernels exercise for real.

#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/aligned.hh"
#include "common/error.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp {

/// p-by-q process grid for block-cyclic ownership.
struct Grid {
    int p = 1;
    int q = 1;
    int size() const { return p * q; }
};

template <typename T>
class TiledMatrix {
public:
    TiledMatrix() = default;

    /// Uniform tiling: tiles of nb-by-nb except the last block row/column.
    TiledMatrix(std::int64_t m, std::int64_t n, int nb, Grid grid = {})
        : TiledMatrix(chop(m, nb), chop(n, nb), grid) {}

    /// Explicit tile sizes per block row and block column.
    TiledMatrix(std::vector<int> row_sizes, std::vector<int> col_sizes,
                Grid grid = {}) {
        s_ = std::make_shared<Storage>();
        s_->rb = std::move(row_sizes);
        s_->cb = std::move(col_sizes);
        s_->grid = grid;
        s_->mt = static_cast<int>(s_->rb.size());
        s_->nt = static_cast<int>(s_->cb.size());
        s_->row_off.resize(s_->mt + 1, 0);
        s_->col_off.resize(s_->nt + 1, 0);
        for (int i = 0; i < s_->mt; ++i) {
            tbp_require(s_->rb[i] > 0);
            s_->row_off[i + 1] = s_->row_off[i] + s_->rb[i];
        }
        for (int j = 0; j < s_->nt; ++j) {
            tbp_require(s_->cb[j] > 0);
            s_->col_off[j + 1] = s_->col_off[j] + s_->cb[j];
        }
        // Each tile slot is rounded up to a whole number of cache lines so
        // every tile origin is 64-byte aligned (the allocator aligns the
        // base), keeping packed-kernel loads and stores off split lines.
        constexpr size_t align_elems = kCacheLineBytes / sizeof(T);
        s_->tile_offset.resize(static_cast<size_t>(s_->mt) * s_->nt + 1, 0);
        size_t off = 0;
        for (int j = 0; j < s_->nt; ++j) {
            for (int i = 0; i < s_->mt; ++i) {
                s_->tile_offset[idx(i, j)] = off;
                off += round_up(static_cast<size_t>(s_->rb[i]) * s_->cb[j],
                                align_elems);
            }
        }
        s_->tile_offset.back() = off;
        s_->data.assign(off, T(0));
        mt_ = s_->mt;
        nt_ = s_->nt;
    }

    bool empty() const { return s_ == nullptr || mt_ == 0 || nt_ == 0; }

    std::int64_t m() const {
        return s_->row_off[i0_ + mt_] - s_->row_off[i0_];
    }
    std::int64_t n() const {
        return s_->col_off[j0_ + nt_] - s_->col_off[j0_];
    }
    int mt() const { return mt_; }  ///< block rows in this view
    int nt() const { return nt_; }  ///< block columns in this view

    int tile_mb(int i) const { return s_->rb[i0_ + i]; }
    int tile_nb(int j) const { return s_->cb[j0_ + j]; }

    Grid grid() const { return s_->grid; }

    /// Block-cyclic owner rank of tile (i, j) — indices global to storage so
    /// that sub-views keep the parent's ownership.
    int owner_rank(int i, int j) const {
        return ((i0_ + i) % s_->grid.p) * s_->grid.q + (j0_ + j) % s_->grid.q;
    }

    /// Tile view (i, j) within this matrix view.
    Tile<T> tile(int i, int j) const {
        tbp_require(0 <= i && i < mt_ && 0 <= j && j < nt_);
        int const gi = i0_ + i, gj = j0_ + j;
        return Tile<T>(s_->data.data() + s_->tile_offset[idx(gi, gj)],
                       s_->rb[gi], s_->cb[gj], s_->rb[gi]);
    }

    Tile<T> operator()(int i, int j) const { return tile(i, j); }

    /// Dependency key for tile (i, j): its data pointer.
    void const* tile_key(int i, int j) const { return tile(i, j).data(); }

    /// Sub-view of block rows [i0, i0+mt) x block columns [j0, j0+nt),
    /// sharing storage and ownership with the parent.
    TiledMatrix sub(int i0, int j0, int mt, int nt) const {
        tbp_require(0 <= i0 && 0 <= j0 && mt >= 0 && nt >= 0);
        tbp_require(i0 + mt <= mt_ && j0 + nt <= nt_);
        TiledMatrix v;
        v.s_ = s_;
        v.i0_ = i0_ + i0;
        v.j0_ = j0_ + j0;
        v.mt_ = mt;
        v.nt_ = nt;
        return v;
    }

    /// Element access by global (row, col) within this view. O(log mt) tile
    /// lookup; intended for tests, generators and small drivers.
    T& at(std::int64_t i, std::int64_t j) const {
        tbp_require(0 <= i && i < m() && 0 <= j && j < n());
        std::int64_t const gi = i + s_->row_off[i0_];
        std::int64_t const gj = j + s_->col_off[j0_];
        int const ti = find_block(s_->row_off, gi);
        int const tj = find_block(s_->col_off, gj);
        Tile<T> t(s_->data.data() + s_->tile_offset[idx(ti, tj)],
                  s_->rb[ti], s_->cb[tj], s_->rb[ti]);
        return t(static_cast<int>(gi - s_->row_off[ti]),
                 static_cast<int>(gj - s_->col_off[tj]));
    }

    /// Deep copy with identical tiling, grid and contents.
    TiledMatrix clone() const {
        std::vector<int> rb(mt_), cb(nt_);
        for (int i = 0; i < mt_; ++i)
            rb[i] = tile_mb(i);
        for (int j = 0; j < nt_; ++j)
            cb[j] = tile_nb(j);
        TiledMatrix out(rb, cb, s_->grid);
        for (int j = 0; j < nt_; ++j)
            for (int i = 0; i < mt_; ++i) {
                Tile<T> src = tile(i, j), dst = out.tile(i, j);
                for (int c = 0; c < src.nb(); ++c)
                    for (int r = 0; r < src.mb(); ++r)
                        dst(r, c) = src(r, c);
            }
        return out;
    }

    /// Tile-size vector helpers.
    std::vector<int> row_tile_sizes() const {
        std::vector<int> v(mt_);
        for (int i = 0; i < mt_; ++i)
            v[i] = tile_mb(i);
        return v;
    }
    std::vector<int> col_tile_sizes() const {
        std::vector<int> v(nt_);
        for (int j = 0; j < nt_; ++j)
            v[j] = tile_nb(j);
        return v;
    }

    static std::vector<int> chop(std::int64_t len, int nb) {
        tbp_require(len >= 0 && nb > 0);
        std::vector<int> sizes;
        for (std::int64_t off = 0; off < len; off += nb)
            sizes.push_back(static_cast<int>(std::min<std::int64_t>(nb, len - off)));
        return sizes;  // empty when len == 0; callers check empty()
    }

private:
    struct Storage {
        aligned_vector<T> data;
        std::vector<size_t> tile_offset;  // column-major over (i, j)
        std::vector<int> rb, cb;
        std::vector<std::int64_t> row_off, col_off;
        int mt = 0, nt = 0;
        Grid grid;
    };

    size_t idx(int i, int j) const {
        return static_cast<size_t>(i) + static_cast<size_t>(j) * s_->mt;
    }

    static int find_block(std::vector<std::int64_t> const& off, std::int64_t x) {
        int lo = 0, hi = static_cast<int>(off.size()) - 2;
        while (lo < hi) {
            int mid = (lo + hi + 1) / 2;
            if (off[mid] <= x)
                lo = mid;
            else
                hi = mid - 1;
        }
        return lo;
    }

    std::shared_ptr<Storage> s_;
    int i0_ = 0, j0_ = 0, mt_ = 0, nt_ = 0;
};

}  // namespace tbp
