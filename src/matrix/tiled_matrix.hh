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
// One class, two storage modes. Built without a rank, a matrix stores every
// tile and the task runtime executes them in place. Built for a rank (the
// SPMD kernels of src/comm/), it stores only the tiles owner_rank assigns
// to that rank — its localRowsCols(m) x localRowsCols(n) share,
// ScaLAPACK's numroc — and tile() of any other tile throws tbp::Error.
// Sub-views keep the parent's owner map in both modes.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
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

    /// Block-cyclic owner rank of tile (i, j): grid row i % p, grid column
    /// j % q, ranks numbered row-major. Every tile owner is derived from
    /// this one formula.
    int owner(int i, int j) const { return (i % p) * q + j % q; }
};

template <typename T>
class TiledMatrix {
public:
    TiledMatrix() = default;

    /// Uniform tiling: tiles of nb-by-nb except the last block row/column.
    /// `rank` >= 0 stores only that rank's tiles; -1 stores all of them.
    TiledMatrix(std::int64_t m, std::int64_t n, int nb, Grid grid = {},
                int rank = -1)
        : TiledMatrix(chop(m, nb), chop(n, nb), grid, rank) {}

    /// Explicit tile sizes per block row and block column.
    TiledMatrix(std::vector<int> row_sizes, std::vector<int> col_sizes,
                Grid grid = {}, int rank = -1) {
        s_ = std::make_shared<Storage>();
        s_->rb = std::move(row_sizes);
        s_->cb = std::move(col_sizes);
        s_->grid = grid;
        s_->rank = rank;
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
        mt_ = s_->mt;
        nt_ = s_->nt;
        // Each stored tile slot is rounded up to a whole number of cache
        // lines so every tile origin is 64-byte aligned (the allocator
        // aligns the base), keeping packed-kernel loads and stores off split
        // lines. Tiles of other ranks get no slot.
        constexpr size_t align_elems = kCacheLineBytes / sizeof(T);
        s_->tile_offset.assign(static_cast<size_t>(s_->mt) * s_->nt, kRemote);
        size_t off = 0;
        for (int j = 0; j < s_->nt; ++j) {
            for (int i = 0; i < s_->mt; ++i) {
                if (!is_local(i, j))
                    continue;
                s_->tile_offset[idx(i, j)] = off;
                off += round_up(static_cast<size_t>(s_->rb[i]) * s_->cb[j],
                                align_elems);
            }
        }
        s_->data.assign(off, T(0));
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

    /// The rank whose tiles this matrix stores; -1 when it stores all.
    int rank() const { return s_->rank; }

    /// Block-cyclic owner rank of tile (i, j) — indices global to storage so
    /// that sub-views keep the parent's ownership.
    int owner_rank(int i, int j) const {
        return s_->grid.owner(i0_ + i, j0_ + j);
    }

    /// Whether tile (i, j) has storage here.
    bool is_local(int i, int j) const {
        return s_->rank < 0 || owner_rank(i, j) == s_->rank;
    }

    /// Tile view (i, j) within this matrix view; throws for a tile another
    /// rank owns.
    Tile<T> tile(int i, int j) const {
        tbp_require(0 <= i && i < mt_ && 0 <= j && j < nt_);
        return stored(i0_ + i, j0_ + j);
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
        return stored(ti, tj)(static_cast<int>(gi - s_->row_off[ti]),
                              static_cast<int>(gj - s_->col_off[tj]));
    }

    /// Set every stored element of this view from f(row, col), with (row,
    /// col) the element's position in the view.
    template <typename F>
    void fill(F const& f) const {
        for (int j = 0; j < nt_; ++j)
            for (int i = 0; i < mt_; ++i) {
                if (!is_local(i, j))
                    continue;
                Tile<T> t = tile(i, j);
                std::int64_t const r0 = s_->row_off[i0_ + i] - s_->row_off[i0_];
                std::int64_t const c0 = s_->col_off[j0_ + j] - s_->col_off[j0_];
                for (int c = 0; c < t.nb(); ++c)
                    for (int r = 0; r < t.mb(); ++r)
                        t(r, c) = f(r0 + r, c0 + c);
            }
    }

    /// Deep copy with identical tiling, grid and contents (every tile stored:
    /// a rank-local view need not start on a grid boundary).
    TiledMatrix clone() const {
        tbp_require(s_->rank < 0);
        TiledMatrix out(row_tile_sizes(), col_tile_sizes(), s_->grid);
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
    static constexpr size_t kRemote = std::numeric_limits<size_t>::max();

    struct Storage {
        aligned_vector<T> data;           // stored tiles only
        std::vector<size_t> tile_offset;  // column-major over (i, j); kRemote
                                          // for a tile another rank owns
        std::vector<int> rb, cb;
        std::vector<std::int64_t> row_off, col_off;
        int mt = 0, nt = 0;
        Grid grid;
        int rank = -1;
    };

    size_t idx(int i, int j) const {
        return static_cast<size_t>(i) + static_cast<size_t>(j) * s_->mt;
    }

    /// Tile (gi, gj) in storage indices.
    Tile<T> stored(int gi, int gj) const {
        size_t const off = s_->tile_offset[idx(gi, gj)];
        if (off == kRemote)
            tbp_throw("TiledMatrix: tile (" + std::to_string(gi) + ", "
                      + std::to_string(gj) + ") belongs to rank "
                      + std::to_string(owner_rank(gi - i0_, gj - j0_))
                      + ", not rank " + std::to_string(s_->rank));
        return Tile<T>(s_->data.data() + off, s_->rb[gi], s_->cb[gj],
                       s_->rb[gi]);
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
