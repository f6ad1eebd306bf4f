#pragma once
// Distributed kernels of parallel ST-HOSVD: the Gram matrix of an unfolding
// (TuckerMPI's approach, [6] Alg 4), the LQ of an unfolding via butterfly
// TSQR (paper Alg 3), the TTM truncation with fiber reduction, and the
// randomized range-finder SVD (par_rand_svd) that sketches each rank's
// owned slab locally and reuses the tpqrt butterfly on the tall-skinny
// sketch.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "core/truncation.hpp"
#include "dist/dist_tensor.hpp"
#include "dist/redistribute.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "lapack/tridiag_eig.hpp"
#include "tensor/gram.hpp"
#include "tensor/sketch.hpp"
#include "tensor/tensor_lq.hpp"
#include "tensor/ttm.hpp"

namespace tucker::dist {

namespace detail {

/// Packs the lower triangle (including diagonal) of an m x m matrix.
template <class T>
void pack_lower(blas::MatView<T> l, std::vector<T>& buf) {
  const index_t m = l.rows();
  buf.resize(static_cast<std::size_t>(m * (m + 1) / 2));
  std::size_t k = 0;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j <= i; ++j) buf[k++] = l(i, j);
}

template <class T>
void unpack_lower(const std::vector<T>& buf, blas::MatView<T> l) {
  const index_t m = l.rows();
  std::size_t k = 0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j <= i; ++j) l(i, j) = buf[k++];
    for (index_t j = i + 1; j < m; ++j) l(i, j) = T(0);
  }
}

/// Merges two lower-triangular factors: first <- L factor of LQ([first
/// second]), exploiting that both blocks are triangular (paper Sec 3.4).
/// `second` is destroyed (overwritten with reflectors).
template <class T>
void merge_triangles(blas::MatView<T> first, blas::MatView<T> second) {
  std::vector<T> tau;
  la::tplqt(first, second, tau, la::Pentagon::kTriangular);
  // Clear any reflector fill above the diagonal is unnecessary: tplqt only
  // writes the lower triangle of `first`.
}

/// Butterfly (all-reduce style) TSQR reduction over lower-triangular
/// factors: on return every rank of `comm` holds the triangular factor of
/// the stacked global matrix. Non-power-of-two sizes fold the excess ranks
/// into the largest power-of-two subset first and fan the result back out.
///
/// The QR orientation (the upper factor R of vertically stacked blocks)
/// passes the transposed view R^T. The work triangle takes the same
/// orientation, so every merge is tpqrt on R's own storage and strides:
/// blas1's dot and nrm2 sum in a different order at unit stride, so a
/// transposed copy would move bits.
template <class T>
void butterfly_lq_reduce(blas::MatView<T> l, mpi::Comm& comm) {
  const int p = comm.size();
  if (p == 1) return;
  const index_t m = l.rows();
  const int rank = comm.rank();
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;

  std::vector<T> sendbuf, recvbuf;
  const std::int64_t tlen = m * (m + 1) / 2;
  blas::Matrix<T> work(m, m);
  const blas::MatView<T> other =
      l.col_stride() == 1 ? work.view() : work.view().t();

  constexpr int kFoldTag = 901, kUnfoldTag = 902, kStepTag = 910;

  if (rank >= pof2) {
    // Excess rank: contribute my triangle, then wait for the result.
    pack_lower(l, sendbuf);
    comm.send(rank - pof2, sendbuf.data(), tlen, kFoldTag);
    recvbuf.resize(static_cast<std::size_t>(tlen));
    comm.recv(rank - pof2, recvbuf.data(), tlen, kUnfoldTag);
    unpack_lower(recvbuf, l);
    return;
  }
  if (rank + pof2 < p) {
    recvbuf.resize(static_cast<std::size_t>(tlen));
    comm.recv(rank + pof2, recvbuf.data(), tlen, kFoldTag);
    unpack_lower(recvbuf, other);
    merge_triangles(l, other);  // lower world-rank's factor goes first
  }

  for (int mask = 1, step = 0; mask < pof2; mask <<= 1, ++step) {
    const int partner = rank ^ mask;
    pack_lower(l, sendbuf);
    recvbuf.resize(static_cast<std::size_t>(tlen));
    comm.sendrecv(partner, sendbuf.data(), tlen, recvbuf.data(), tlen,
                  kStepTag + step);
    unpack_lower(recvbuf, other);
    if (rank < partner) {
      merge_triangles(l, other);
    } else {
      // Both partners compute LQ([L_low L_high]) so the reduction yields a
      // bitwise-identical factor everywhere.
      merge_triangles(other, l);
      blas::copy(blas::MatView<const T>(other), l);
    }
  }

  if (rank + pof2 < p) {
    pack_lower(l, sendbuf);
    comm.send(rank + pof2, sendbuf.data(), tlen, kUnfoldTag);
  }
}

/// The LQ orientation on a whole matrix.
template <class T>
void butterfly_lq_reduce(blas::Matrix<T>& l, mpi::Comm& comm) {
  butterfly_lq_reduce(l.view(), comm);
}

/// R factor (w x w, replicated over `fiber`) of the tall-skinny matrix
/// whose row slabs the fiber ranks hold: local QR of the slab, zero-padded
/// triangle when the slab is shorter than w, then the butterfly reduction.
template <class T>
blas::Matrix<T> tsqr_r_factor(blas::MatView<const T> slab, mpi::Comm& fiber) {
  const index_t mloc = slab.rows();
  const index_t w = slab.cols();
  blas::Matrix<T> r(w, w);
  if (mloc > 0 && w > 0) {
    Workspace& ws = Workspace::local();
    auto scratch = ws.frame();
    auto a = blas::MatView<T>::row_major(
        ws.get<T>(static_cast<std::size_t>(mloc * w)), mloc, w);
    blas::copy(slab, a);
    std::vector<T> tau;
    la::geqrf(a, tau);
    const index_t k = std::min(mloc, w);
    for (index_t i = 0; i < k; ++i)
      for (index_t j = i; j < w; ++j) r(i, j) = a(i, j);
  }
  butterfly_lq_reduce(r.view().t(), fiber);
  return r;
}

/// q_slab <- w_slab * R^{-1} by forward column substitution. Columns whose
/// diagonal entry is below the numerical-rank floor are zeroed (they carry
/// no energy; the projected spectrum then reports ~0 for them and rank
/// selection discards them).
template <class T>
void apply_rinv(blas::MatView<const T> w_slab, const blas::Matrix<T>& r,
                blas::MatView<T> q_slab) {
  const index_t mloc = w_slab.rows();
  const index_t w = w_slab.cols();
  T maxdiag = T(0);
  for (index_t j = 0; j < w; ++j)
    maxdiag = std::max(maxdiag, std::abs(r(j, j)));
  const T tol = maxdiag * std::numeric_limits<T>::epsilon() *
                static_cast<T>(std::max<index_t>(w, 1));
  for (index_t j = 0; j < w; ++j) {
    if (std::abs(r(j, j)) <= tol) {
      for (index_t i = 0; i < mloc; ++i) q_slab(i, j) = T(0);
      continue;
    }
    const T inv = T(1) / r(j, j);
    for (index_t i = 0; i < mloc; ++i) {
      T s = w_slab(i, j);
      for (index_t k = 0; k < j; ++k) s -= r(k, j) * q_slab(i, k);
      q_slab(i, j) = s * inv;
    }
  }
  tucker::add_flops(static_cast<std::int64_t>(mloc) * w * (w + 1));
}

/// Orthonormalizes the fiber-stacked tall-skinny matrix held as row slabs:
/// TSQR for the replicated R, substitution for the explicit Q slab, then
/// one refinement pass (a second TSQR of Q) to restore the orthogonality
/// lost to cond(W) -- the CholeskyQR2 device, here with the backward-stable
/// tpqrt butterfly instead of a Cholesky. w_slab is destroyed (used as
/// scratch for the refinement).
template <class T>
void tsqr_orthonormalize(blas::MatView<T> w_slab, mpi::Comm& fiber,
                         blas::MatView<T> q_slab) {
  blas::Matrix<T> r1 =
      tsqr_r_factor(blas::MatView<const T>(w_slab), fiber);
  apply_rinv(blas::MatView<const T>(w_slab), r1, q_slab);
  blas::Matrix<T> r2 =
      tsqr_r_factor(blas::MatView<const T>(q_slab), fiber);
  blas::copy(blas::MatView<const T>(q_slab), w_slab);
  apply_rinv(blas::MatView<const T>(w_slab), r2, q_slab);
}

/// Maps a *local* unfolding column index of a distributed block to the
/// corresponding *global* unfolding column: mixed-radix decode over the
/// modes other than n (mode 0 fastest, matching for_each_unfolding_step's
/// column order), offset by the rank's owned range in each mode. This is
/// what lets every rank draw its rows of the one global test matrix Omega
/// locally, with zero communication.
class GlobalColMap {
 public:
  template <class T>
  GlobalColMap(const DistTensor<T>& y, std::size_t n) {
    std::uint64_t gs = 1;
    for (std::size_t k = 0; k < y.order(); ++k) {
      if (k == n) continue;
      ldim_.push_back(y.local().dim(k));
      lo_.push_back(static_cast<std::uint64_t>(y.mode_range(k).lo));
      gstride_.push_back(gs);
      gs *= static_cast<std::uint64_t>(y.global_dim(k));
    }
  }
  std::uint64_t operator()(index_t c) const {
    auto rem = static_cast<std::uint64_t>(c);
    std::uint64_t g = 0;
    for (std::size_t i = 0; i < ldim_.size(); ++i) {
      const auto d = static_cast<std::uint64_t>(ldim_[i]);
      g += (lo_[i] + rem % d) * gstride_[i];
      rem /= d;
    }
    return g;
  }

 private:
  std::vector<index_t> ldim_;
  std::vector<std::uint64_t> lo_, gstride_;
};

}  // namespace detail

/// Gram matrix of the global mode-n unfolding, replicated on every rank:
/// local syrk (after fiber redistribution when P_n > 1) plus a world
/// allreduce. This is TuckerMPI's kernel; its cost is n*m^2 local flops.
template <class T>
blas::Matrix<T> par_gram(const DistTensor<T>& y, std::size_t n) {
  const index_t m = y.global_dim(n);
  blas::Matrix<T> g(m, m);
  if (y.grid().dim(n) == 1) {
    if (y.local().size() > 0) g = tensor::gram_of_unfolding(y.local(), n);
  } else {
    ColMatrix<T> z = redistribute_unfolding(y, n);
    if (z.cols > 0)
      blas::syrk(T(1), static_cast<blas::MatView<const T>>(z.view()), T(0),
                 g.view());
  }
  y.world().allreduce(g.data(), m * m, mpi::Op::kSum);
  y.world().sync_cpu_clock();  // attribute trailing compute to this region
  return g;
}

/// Triangular LQ factor of the global mode-n unfolding, replicated on every
/// rank (paper Alg 3): local LQ tailored to the data layout, then a
/// butterfly TSQR reduction over all ranks. The result is the m x m lower
/// triangle; ranks whose local slice was tall contribute zero-padded
/// triangles (paper Sec 3.4). Costs ~2*n*m^2 local flops -- twice Gram.
template <class T>
blas::Matrix<T> par_tensor_lq(const DistTensor<T>& y, std::size_t n) {
  const index_t m = y.global_dim(n);
  blas::Matrix<T> l(m, m);
  if (y.grid().dim(n) == 1) {
    if (y.local().size() > 0) {
      blas::Matrix<T> lt = tensor::tensor_lq(y.local(), n);
      blas::copy(blas::MatView<const T>(lt.view()),
                 l.view().block(0, 0, lt.rows(), lt.cols()));
    }
  } else {
    ColMatrix<T> z = redistribute_unfolding(y, n);
    if (z.cols > 0) {
      std::vector<T> tau;
      la::gelqf(z.view(), tau);
      blas::Matrix<T> lt = la::extract_l<T>(blas::MatView<const T>(z.view()));
      blas::copy(blas::MatView<const T>(lt.view()),
                 l.view().block(0, 0, lt.rows(), lt.cols()));
    }
  }
  detail::butterfly_lq_reduce(l, y.world());
  y.world().sync_cpu_clock();  // attribute trailing compute to this region
  return l;
}

/// Distributed TTM truncation into a caller-owned tensor: Y = X x_n U^T
/// where U (I_n x R) is replicated. Local partial products with the owned
/// row slice of U, a fiber reduction, and extraction of the owned slice of
/// the R rows keep the block distribution (same grid, mode-n dimension now
/// R). `out` must share x's grid (an empty_clone or a previous output) and
/// is re-dimensioned in place, so cycling the same out through repeated
/// truncations reuses its local allocation.
template <class T>
void par_ttm_truncate_into(const DistTensor<T>& x, std::size_t n,
                           blas::MatView<const T> u, DistTensor<T>& out) {
  TUCKER_CHECK(u.rows() == x.global_dim(n), "par_ttm: U row mismatch");
  TUCKER_CHECK(&x != &out, "par_ttm: x and out must be distinct");
  const index_t r = u.cols();
  out.reshape_mode_of(x, n, r);

  // Partial product with my row slice of U: tmp = X_loc x_n (U_rows)^T,
  // giving all R rows of my column set. The partial tensor and the pack
  // buffers below are stashed per rank-thread so every truncation of the
  // parallel ST-HOSVD sweep reuses them.
  Workspace& ws = Workspace::local();
  const Range rows = x.mode_range(n);
  auto usub = u.block(rows.lo, 0, rows.size(), r);
  auto& tmp = ws.stash<tensor::Tensor<T>>("dist.par_ttm.partial");
  tensor::ttm_into(x.local(), n, blas::MatView<const T>(usub.t()), tmp);

  const index_t pn = x.grid().dim(n);
  if (pn > 1 && tmp.size() > 0) {
    // Reduce-scatter across the fiber: sum the partials and leave each rank
    // exactly its block of the R rows (TuckerMPI's approach). Pack the
    // partial so each destination's rows are contiguous; the received block
    // is already in the output tensor's natural layout.
    mpi::Comm& fiber = x.fiber_comm(n);
    const index_t before = tensor::prod_before(tmp.dims(), n);
    const index_t nblocks = tensor::unfolding_num_blocks(tmp, n);
    auto& sendbuf = ws.stash<std::vector<T>>("dist.par_ttm.sendbuf");
    sendbuf.resize(static_cast<std::size_t>(tmp.size()));
    auto& counts = ws.stash<std::vector<std::int64_t>>("dist.par_ttm.counts");
    counts.resize(static_cast<std::size_t>(pn));
    {
      std::int64_t off = 0;
      for (index_t q = 0; q < pn; ++q) {
        const Range qr = block_range(r, pn, q);
        counts[static_cast<std::size_t>(q)] = qr.size() * before * nblocks;
        for (index_t j = 0; j < nblocks; ++j) {
          auto blk = tensor::unfolding_block(tmp, n, j);
          for (index_t i = qr.lo; i < qr.hi; ++i)
            for (index_t c = 0; c < before; ++c)
              sendbuf[static_cast<std::size_t>(off++)] = blk(i, c);
        }
      }
    }
    fiber.reduce_scatter(sendbuf.data(), out.local().data(), counts);
    return;
  }

  // P_n == 1 (or empty): keep my block slice of the R rows directly.
  const Range orows = out.mode_range(n);
  const index_t nblocks = tensor::unfolding_num_blocks(out.local(), n);
  for (index_t j = 0; j < nblocks; ++j) {
    auto src = tensor::unfolding_block(tmp, n, j);
    auto dst = tensor::unfolding_block(out.local(), n, j);
    if (dst.rows() > 0 && dst.cols() > 0)
      blas::copy(blas::MatView<const T>(
                     src.block(orows.lo, 0, orows.size(), src.cols())),
                 dst);
  }
}

/// Value-returning convenience wrapper around par_ttm_truncate_into.
template <class T>
DistTensor<T> par_ttm_truncate(const DistTensor<T>& x, std::size_t n,
                               blas::MatView<const T> u) {
  DistTensor<T> out = x.empty_clone();
  par_ttm_truncate_into(x, n, u, out);
  return out;
}

/// Distributed randomized range-finder SVD of the global mode-n unfolding
/// (the parallel twin of core::rand_svd; same sketch algebra, same
/// adaptive-oversampling loop, same trailing-residual convention). Returns
/// the sketched spectrum (w squared singular values plus the trailing
/// residual pseudo-entry, see core::rand_svd) and the m x w left basis,
/// replicated. Compute regions are tagged label+"/Sketch" and
/// label+"/SVD".
///
/// Communication pattern per round:
///  - Sketch: each rank multiplies its owned slab of the unfolding by its
///    rows of the global Omega (drawn locally via detail::GlobalColMap), and
///    a "slice" allreduce (over ranks sharing this rank's mode-n range) sums
///    the column partials. The m x w sketch stays distributed as row slabs
///    over the mode-n fiber.
///  - Orthonormalize: butterfly TSQR over the fiber (tpqrt on stacked
///    triangles, detail::tsqr_orthonormalize) -- the tall-skinny sketch is
///    exactly the shape the paper's TSQR machinery was built for.
///  - Power iteration: Z = X^T Q needs a fiber allreduce (row blocks of X
///    couple across the fiber); W = X Z needs the slice allreduce again.
///  - Projected spectrum: B = Q^T X via fiber allreduce, local syrk over
///    the owned columns, slice allreduce for the w x w Gram, redundant
///    eigensolve -- every rank selects identical widths and ranks.
///
/// Determinism contract: Omega is invariant across grids and thread counts;
/// for a fixed grid the result is bitwise identical run to run and across
/// TUCKER_NUM_THREADS (every collective is bitwise-replicated and every
/// local kernel thread-invariant). Across *different* grids the allreduce
/// summation order differs, so results match the sequential engine only to
/// rounding -- the same contract as par_gram / par_tensor_lq.
template <class T>
core::ModeSvd<T> par_rand_svd(const DistTensor<T>& y, std::size_t n,
                              index_t fixed_rank, double threshold_sq,
                              index_t oversample, int power_iters,
                              std::uint64_t seed, index_t rank_guess,
                              const std::string& label) {
  mpi::Comm& world = y.world();
  // Ranks sharing my mode-n coordinate hold the same rows of the unfolding
  // but different column sets: their partials sum over this communicator.
  mpi::Comm slice =
      world.split(static_cast<int>(y.coords()[n]), world.rank());

  core::ModeSvd<T> out;
  const index_t m = y.global_dim(n);
  index_t cols_glob = 1;
  for (std::size_t k = 0; k < y.order(); ++k)
    if (k != n) cols_glob *= y.global_dim(k);
  if (m == 0 || cols_glob == 0) {
    out.u = blas::Matrix<T>(m, 0);
    return out;
  }
  mpi::Comm& fiber = y.fiber_comm(n);
  const Range rows = y.mode_range(n);
  const index_t mloc = rows.size();
  const index_t cols_loc = tensor::prod_before(y.local().dims(), n) *
                           tensor::prod_after(y.local().dims(), n);
  const index_t cap = std::min(m, cols_glob);
  const index_t p = std::max<index_t>(oversample, 0);
  const bool fixed = fixed_rank > 0;
  index_t w;
  if (fixed) {
    w = std::min(cap, fixed_rank + p);
  } else {
    const index_t guess =
        rank_guess > 0 ? rank_guess : std::max<index_t>(8, m / 8);
    w = std::min(cap, guess + p);
  }
  w = std::max<index_t>(w, 1);

  const double norm_sq = y.norm_squared();
  const std::uint64_t stream = substream(seed, n);
  const detail::GlobalColMap colmap(y, n);
  using Step = tensor::detail::UnfoldingStep<T>;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  // Slab of the global sketch (my rows, all columns drawn so far); the
  // adaptive loop only ever appends columns.
  auto sall = blas::MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(std::max<index_t>(mloc, 1) * cap)),
      mloc, cap);
  T* wdata =
      ws.get<T>(static_cast<std::size_t>(std::max<index_t>(mloc, 1) * cap));
  T* qdata =
      ws.get<T>(static_cast<std::size_t>(std::max<index_t>(mloc, 1) * cap));

  index_t wprev = 0;
  for (;;) {
    std::vector<T> sigma_sq;
    blas::Matrix<T> v;
    auto qv = blas::MatView<T>::row_major(qdata, mloc, w);
    {
      auto rg = world.region(label + "/Sketch");
      {
        // New Omega columns: local partial sketch (contiguous so the
        // collective can sum it), slice allreduce, append to the slab.
        const index_t wnew = w - wprev;
        auto scratch = ws.frame();
        auto snew = blas::MatView<T>::row_major(
            ws.get<T>(static_cast<std::size_t>(std::max<index_t>(mloc, 1) *
                                               wnew)),
            mloc, wnew);
        tensor::sketch_unfolding_cols(y.local(), n, stream, wprev, w, colmap,
                                      snew);
        slice.allreduce(snew.data(), mloc * wnew, mpi::Op::kSum);
        if (mloc > 0)
          blas::copy(blas::MatView<const T>(snew),
                     sall.block(0, wprev, mloc, wnew));
      }
      auto wv = blas::MatView<T>::row_major(wdata, mloc, w);
      if (mloc > 0)
        blas::copy(blas::MatView<const T>(sall.block(0, 0, mloc, w)), wv);
      for (int it = 0; it < power_iters; ++it) {
        detail::tsqr_orthonormalize(wv, fiber, qv);
        auto scratch = ws.frame();
        auto z = blas::MatView<T>::row_major(
            ws.get<T>(static_cast<std::size_t>(
                std::max<index_t>(cols_loc, 1) * w)),
            cols_loc, w);
        tensor::for_each_unfolding_step(y.local(), n, [&](const Step& step) {
          tensor::detail::step_transposed_product(
              step, blas::MatView<const T>(qv),
              z.block(step.c0, 0, step.cols(), w));
        });
        fiber.allreduce(z.data(), cols_loc * w, mpi::Op::kSum);
        blas::fill(wv, T(0));
        T* rpack = ws.get<T>(static_cast<std::size_t>(
            tensor::detail::step_panel_cols(y.local(), n) *
            tensor::detail::packed_width(w)));
        tensor::for_each_unfolding_step(y.local(), n, [&](const Step& step) {
          tensor::detail::pack_step(
              blas::MatView<const T>(z.block(step.c0, 0, step.cols(), w)),
              rpack);
          tensor::detail::step_product(step, rpack, wv);
        });
        slice.allreduce(wdata, mloc * w, mpi::Op::kSum);
      }
      detail::tsqr_orthonormalize(wv, fiber, qv);
      world.sync_cpu_clock();
    }

    double captured = 0;
    {
      auto rg = world.region(label + "/SVD");
      auto scratch = ws.frame();
      auto b = blas::MatView<T>::row_major(
          ws.get<T>(static_cast<std::size_t>(
              w * std::max<index_t>(cols_loc, 1))),
          w, cols_loc);
      blas::fill(b, T(0));
      tensor::for_each_unfolding_step(y.local(), n, [&](const Step& step) {
        tensor::detail::step_transposed_product(
            step, blas::MatView<const T>(qv),
            b.block(0, step.c0, w, step.cols()).t());
      });
      fiber.allreduce(b.data(), w * cols_loc, mpi::Op::kSum);
      auto g = blas::MatView<T>::row_major(
          ws.get<T>(static_cast<std::size_t>(w * w)), w, w);
      blas::syrk(T(1), blas::MatView<const T>(b), T(0), g);
      slice.allreduce(g.data(), w * w, mpi::Op::kSum);
      auto eig = la::tridiag_eig(blas::MatView<const T>(g));
      world.sync_cpu_clock();
      sigma_sq.reserve(static_cast<std::size_t>(w) + 1);
      for (T lam : eig.lambda) {
        const T s = std::abs(lam);
        sigma_sq.push_back(s);
        captured += static_cast<double>(s);
      }
      v = std::move(eig.v);
    }
    // At full width the residual is exactly zero (the basis spans the
    // whole row space); see core::rand_svd.
    const double resid =
        w >= cap ? 0.0 : std::max(0.0, norm_sq - captured);
    sigma_sq.push_back(static_cast<T>(resid));

    bool accept = fixed || w >= cap;
    if (!fixed && !accept) {
      // Same certification as core::rand_svd; all inputs are replicated,
      // so every rank takes the same branch.
      const bool certified =
          static_cast<double>(sigma_sq.back()) <= threshold_sq;
      const index_t r = core::select_rank(sigma_sq, threshold_sq);
      accept = certified && r + p <= w;
    }
    if (accept) {
      auto rg = world.region(label + "/SVD");
      out.sigma_sq = std::move(sigma_sq);
      out.u = blas::Matrix<T>(m, w);
      // U = Q V assembled by global row offset: each slice holds identical
      // Q slabs, so only slice rank 0 contributes its block and a world
      // allreduce replicates the stacked result.
      if (mloc > 0 && slice.rank() == 0) {
        blas::gemm(T(1), blas::MatView<const T>(qv),
                   blas::MatView<const T>(v.view()), T(0),
                   out.u.view().block(rows.lo, 0, mloc, w));
      }
      world.allreduce(out.u.data(), m * w, mpi::Op::kSum);
      world.sync_cpu_clock();
      return out;
    }
    wprev = w;
    w = std::min(cap, 2 * w);
  }
}

}  // namespace tucker::dist
