#pragma once
// Out-of-core streaming ST-HOSVD + incremental StreamingTucker.
//
// stream_sthosvd runs the paper's Alg 1 against an UnfoldingSource instead
// of a resident tensor. Modes are processed in forward (storage) order so
// the slab axis -- the last mode -- comes up last:
//
//  - For every non-trailing mode, one pipelined pass over the slabs builds
//    the mode's SVD hierarchically (per-slab LQ triangles merged up a
//    binary tree; per-slab Gram or rand-sketch accumulation for the other
//    engines), then a second pass applies the truncation TTM slab by slab,
//    spilling the shrunken tensor to a fresh chunked temp file. Spill
//    passes re-chunk: slabs widen as the tensor shrinks, keeping each near
//    the byte budget.
//  - As soon as the shrinking tensor fits the budget it is gathered and
//    the remaining modes run the classic in-memory steps (a whole-tensor
//    "slab"). A tensor that fits from the start delegates to core::sthosvd
//    outright, which is what makes the single-chunk case *bitwise* equal
//    to the in-memory QR-SVD driver.
//  - If the trailing mode is reached while still out of core, its
//    unfolding is row-split across slabs, so the dual recipe applies: TSQR
//    (tpqrt row-block annihilation) accumulates the C x C triangle R, the
//    small SVD of R^T yields singular values and right vectors V, and a
//    second pass back-projects the factor U = A V S^-1 per slab. The core
//    follows without touching the data again: U^T A = (R V S^-1)^T R.
//
// Tolerance mode uses the same per-mode budget eps^2 ||X||^2 / N as the
// in-memory driver; ||X||^2 is accumulated slab by slab during the first
// pass (mode 0 is always a column pass when N >= 2, so the threshold is
// ready before the first rank selection).
//
// StreamingTucker is the online variant (Iwen-Ong incremental hierarchical
// SVD, T-HOSVD flavor): it keeps one merged LQ triangle per non-trailing
// mode of the *raw* unfoldings plus the current decomposition, and
// append() folds a new trailing-mode block in by merging the block's
// triangles (exact), rotating the old core into the new bases, and
// re-solving only the small trailing-mode problem -- no pass over old data.
//
// Scratch discipline: per-slab work runs inside Workspace frames, and the
// driver brackets its phases with WaterRegions ("stream.svd",
// "stream.ttm") so tests assert -- rather than eyeball -- that the arena
// high-water mark stays O(slab), not O(tensor).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/workspace.hpp"
#include "core/sthosvd.hpp"
#include "io/chunked_tensor_io.hpp"
#include "stream/hier_svd.hpp"
#include "stream/unfolding_source.hpp"
#include "tensor/gram.hpp"
#include "tensor/ttm.hpp"

namespace tucker::stream {

/// Knobs of the out-of-core drivers.
struct StreamOptions {
  /// Slab byte budget: one slab's payload fits it (kDefaultChunkBytes,
  /// 256 MiB).
  std::size_t chunk_bytes = kDefaultChunkBytes;
  /// Directory for truncation-pass spill files; "" = $TMPDIR or /tmp.
  /// Spill files are removed as soon as the next pass supersedes them
  /// (and on scope exit either way).
  std::string spill_dir;
  /// Per-chunk sketch knobs for SvdMethod::kRand.
  core::RandSvdOptions rand;
};

namespace detail {

inline std::string spill_dir_or_default(const std::string& dir) {
  if (!dir.empty()) return dir;
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0')
    return t;
  return "/tmp";
}

inline std::string make_spill_path(const std::string& dir) {
  static std::atomic<unsigned> counter{0};
  return dir + "/tucker_spill_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".tkc";
}

/// Owns a spill file's lifetime: the file is removed on reset/destruction.
class SpillFile {
 public:
  SpillFile() = default;
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  SpillFile(SpillFile&& o) noexcept : path_(std::move(o.path_)) {
    o.path_.clear();
  }
  SpillFile& operator=(SpillFile&& o) noexcept {
    if (this != &o) {
      reset();
      path_ = std::move(o.path_);
      o.path_.clear();
    }
    return *this;
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() { reset(); }

  void reset() {
    if (!path_.empty()) std::remove(path_.c_str());
    path_.clear();
  }
  bool empty() const { return path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Copies trailing slices of arbitrary-extent pieces into uniform output
/// slabs and streams them to a ChunkedTensorWriter. This is what lets a
/// truncation pass re-chunk: input slab extents (possibly ragged, e.g.
/// from an AppendStream) need not match the output grid.
template <class T>
class SlabRepacker {
 public:
  SlabRepacker(const std::string& path, tensor::Dims dims, index_t out_slices)
      : writer_(path, dims, out_slices),
        dims_(std::move(dims)),
        out_slices_(out_slices) {
    const index_t last = dims_.back();
    slice_elems_ = last == 0 ? 0 : tensor::num_elements(dims_) / last;
    acc_dims_ = dims_;
  }

  /// Appends one piece (same leading dims, any trailing extent).
  void push(const tensor::Tensor<T>& piece) {
    const index_t ext = piece.dim(dims_.size() - 1);
    index_t done = 0;
    while (done < ext) {
      const index_t room =
          std::min(out_slices_, dims_.back() - emitted_) - filled_;
      const index_t take = std::min(room, ext - done);
      ensure_acc();
      std::memcpy(acc_.data() + filled_ * slice_elems_,
                  piece.data() + done * slice_elems_,
                  static_cast<std::size_t>(take * slice_elems_) * sizeof(T));
      filled_ += take;
      done += take;
      if (filled_ == std::min(out_slices_, dims_.back() - emitted_)) flush();
    }
  }

  void close() {
    TUCKER_CHECK(filled_ == 0 && emitted_ == dims_.back(),
                 "SlabRepacker: closed before all slices arrived");
    writer_.close();
  }

 private:
  void ensure_acc() {
    const index_t want = std::min(out_slices_, dims_.back() - emitted_);
    if (acc_dims_.back() != want || acc_.size() != want * slice_elems_) {
      acc_dims_.back() = want;
      acc_.reshape(acc_dims_);
    }
  }
  void flush() {
    writer_.write_slab(acc_);
    emitted_ += filled_;
    filled_ = 0;
  }

  io::ChunkedTensorWriter<T> writer_;
  tensor::Dims dims_;
  tensor::Dims acc_dims_;
  tensor::Tensor<T> acc_;
  index_t out_slices_ = 0;
  index_t slice_elems_ = 0;
  index_t filled_ = 0;   // slices in acc_
  index_t emitted_ = 0;  // slices already written
};

/// Concatenates all slabs back into a resident tensor (bitwise: slabs are
/// contiguous ranges of the linear buffer).
template <class T>
tensor::Tensor<T> gather(UnfoldingSource<T>& src) {
  tensor::Tensor<T> x(src.dims());
  const index_t last = src.dims().back();
  const index_t slice_elems = last == 0 ? 0 : x.size() / last;
  tensor::Tensor<T> slab;
  for (index_t s = 0; s < src.num_slabs(); ++s) {
    src.read_slab(s, slab);
    std::memcpy(x.data() + src.slab_begin(s) * slice_elems, slab.data(),
                static_cast<std::size_t>(slab.size()) * sizeof(T));
  }
  return x;
}

/// On resident data the hierarchical engine is single-chunk, i.e. exactly
/// QR-SVD; dispatching kStream to kQr keeps that contract bitwise.
inline core::SvdMethod resident_method(core::SvdMethod m) {
  return m == core::SvdMethod::kStream ? core::SvdMethod::kQr : m;
}

/// x projected through ms[n] on every mode n < ms.size() (each ms[n] is
/// rows_out x x.dim(n)), via the usual ping-pong TTM chain.
template <class T>
tensor::Tensor<T> ttm_chain_leading(
    const tensor::Tensor<T>& x,
    const std::vector<blas::MatView<const T>>& ms) {
  TUCKER_CHECK(!ms.empty(), "ttm_chain_leading: nothing to apply");
  tensor::Tensor<T> a, b;
  tensor::Tensor<T>* slots[2] = {&a, &b};
  const tensor::Tensor<T>* cur = &x;
  int slot = 0, last = 0;
  for (std::size_t n = 0; n < ms.size(); ++n) {
    tensor::ttm_into(*cur, n, ms[n], *slots[slot]);
    cur = slots[slot];
    last = slot;
    slot ^= 1;
  }
  return std::move(*slots[last]);
}

}  // namespace detail

/// stream_sthosvd output: the classic result plus out-of-core telemetry.
template <class T>
struct StreamSthosvdResult {
  core::SthosvdResult<T> decomposition;
  /// Total slab reads across all passes (SVD + truncation + gather).
  index_t slabs_read = 0;
  /// Bytes written to spill files across all truncation passes.
  std::size_t spill_bytes = 0;
  /// The slab byte budget the run used.
  std::size_t slab_bytes = 0;
  /// Driver-thread arena peak during the run (the driver resets the
  /// thread-local high-water mark on entry, so this is per-run).
  std::size_t arena_high_water = 0;
  /// Processing position at which the shrinking tensor first fit the
  /// budget and the driver went resident (0 = delegated entirely to the
  /// in-memory driver, -1 = stayed out of core through the last mode).
  int gathered_after = -1;
};

/// Out-of-core ST-HOSVD over an UnfoldingSource. Modes are processed in
/// forward order (the slab axis must come last while out of core; see the
/// header comment). Accuracy: kQr/kStream stay on the eps*||A|| rung of
/// Theorem 1 (merge depth adds a log factor to the constant); kGram keeps
/// its sqrt(eps) floor; kRand discards at most the per-chunk energy budget
/// eps^2 ||slab||^2 / N per chunk, which sums to the global budget.
template <class T>
StreamSthosvdResult<T> stream_sthosvd(
    UnfoldingSource<T>& src, const core::TruncationSpec& spec,
    core::SvdMethod method = core::SvdMethod::kStream,
    const StreamOptions& opt = {}) {
  const std::size_t nmodes = src.dims().size();
  TUCKER_CHECK(nmodes >= 2, "stream_sthosvd: need at least two modes");
  core::check_spec_and_order(spec, core::forward_order(nmodes), nmodes);
  const std::size_t t = nmodes - 1;
  const std::size_t budget = opt.chunk_bytes;

  StreamSthosvdResult<T> out;
  out.slab_bytes = budget;
  core::SthosvdResult<T>& res = out.decomposition;

  Workspace& ws = Workspace::local();
  ws.reset_high_water();

  // Fits from the start: gather once and delegate. This is the bitwise
  // bridge to the in-memory driver (same tensor, same threshold, same
  // kernels; kStream runs as its single-chunk self, QR-SVD).
  if (src.total_bytes() <= budget || src.num_slabs() <= 1) {
    tensor::Tensor<T> x = detail::gather(src);
    out.slabs_read = src.num_slabs();
    res = core::sthosvd(x, spec, detail::resident_method(method), {},
                        opt.rand);
    out.gathered_after = 0;
    out.arena_high_water = ws.high_water();
    return out;
  }

  res.order = core::forward_order(nmodes);
  res.mode_sigmas.resize(nmodes);
  res.ranks.assign(nmodes, 0);
  res.tucker.factors.resize(nmodes);

  // Half the budget per slab: the pipeline keeps two slabs in flight, and
  // the per-slab LQ needs an arena working copy of the slab plus kernel
  // scratch, so budget/2 slabs keep the total working set (buffers + arena
  // high-water) under 2x the budget -- the bound tests/stream_test.cpp
  // asserts. The mid-run gather uses the same threshold for the same
  // reason: the resident finish factors the whole gathered tensor.
  const std::size_t half = std::max<std::size_t>(budget / 2, 1);

  const std::string sdir = detail::spill_dir_or_default(opt.spill_dir);
  detail::SpillFile spill[2];
  int spill_slot = 0;
  std::unique_ptr<FileSource<T>> spill_src;
  UnfoldingSource<T>* cur = &src;
  tensor::Dims cur_dims = src.dims();
  tensor::Tensor<T> resident;
  bool is_resident = false;
  double threshold_sq = 0;  // set once ||X||^2 is known (end of pass 0)

  auto bytes_of = [](const tensor::Dims& d) {
    return static_cast<std::size_t>(tensor::num_elements(d)) * sizeof(T);
  };

  for (std::size_t pos = 0; pos < nmodes; ++pos) {
    const std::size_t n = pos;  // forward order

    if (!is_resident && bytes_of(cur_dims) <= half) {
      // The shrinking tensor now fits: gather and finish in memory.
      resident = detail::gather(*cur);
      out.slabs_read += cur->num_slabs();
      is_resident = true;
      out.gathered_after = static_cast<int>(pos);
      spill_src.reset();
      spill[0].reset();
      spill[1].reset();
    }

    if (is_resident) {
      // sthosvd's own mode step, with the threshold derived from the
      // slab-accumulated ||X||^2 (not recomputed from the shrunken data).
      tensor::Tensor<T> next;
      core::sthosvd_mode(resident, n, spec, detail::resident_method(method),
                         threshold_sq, opt.rand, Accum::kNative, res, next);
      resident = std::move(next);
      continue;
    }

    if (n == t) {
      // Trailing mode, still out of core: the unfolding is row-split
      // across slabs -- TSQR + back-projection (see header comment).
      const index_t rows_total = cur_dims[t];
      const index_t c = tensor::prod_before(cur_dims, t);
      blas::Matrix<T> rfac(0, 0);
      {
        Workspace::WaterRegion region(ws, "stream.svd");
        TsqrAccumulator<T> acc(c);
        SlabPipeline<T> pipe(*cur);
        for (index_t s = 0; s < pipe.total(); ++s) {
          tensor::Tensor<T>& slab = pipe.next();
          // The slab's mode-t unfolding is its whole buffer, row-major
          // (extent x c). tpqrt consumes it, which is fine: the pipeline
          // buffer is dead after this iteration.
          acc.push(tensor::unfolding_block(slab, t, 0));
        }
        rfac = std::move(acc.r());
        out.slabs_read += cur->num_slabs();
      }
      // Singular values and *right* vectors of the stacked unfolding from
      // the small factor: sigma(R) = sigma(A); left vectors of R^T are
      // right vectors of A. The C x C triangle has rank <= rows_total, so
      // when the unfolding is wide it is heavily rank-deficient; the
      // bidiagonal QR iteration loses several digits on the kept right
      // vectors under that much deflation (enough to break the U = A P
      // back-projection), while one-sided Jacobi keeps full column-wise
      // accuracy. Same asymptotic cost, so use Jacobi unconditionally here.
      // The kept V_r becomes P = V_r diag(1/sigma): U = A P spans the
      // leading left subspace.
      blas::Matrix<T> p = core::truncate_mode(
          core::svd_of_l(blas::Matrix<T>::from(
                             blas::MatView<const T>(rfac.view().t())),
                         core::SmallSvdBackend::kJacobi),
          spec, t, threshold_sq, res.mode_sigmas[t], res.ranks[t]);
      const index_t r = res.ranks[t];
      for (index_t j = 0; j < r; ++j) {
        const T s = res.mode_sigmas[t][static_cast<std::size_t>(j)];
        const T inv = s > T(0) ? T(1) / s : T(0);
        for (index_t i = 0; i < c; ++i) p(i, j) *= inv;
      }
      // Core without another data pass: U^T A = (R P)^T R.
      blas::Matrix<T> rp(c, r);
      blas::gemm(T(1), blas::MatView<const T>(rfac.view()),
                 blas::MatView<const T>(p.view()), T(0), rp.view());
      tensor::Dims core_dims = cur_dims;
      core_dims[t] = r;
      res.tucker.core = tensor::Tensor<T>(core_dims);
      blas::gemm(T(1), blas::MatView<const T>(rp.view().t()),
                 blas::MatView<const T>(rfac.view()), T(0),
                 tensor::unfolding_block(res.tucker.core, t, 0));
      // Second pass: factor rows per slab, U_s = A_s P.
      blas::Matrix<T> u(rows_total, r);
      {
        Workspace::WaterRegion region(ws, "stream.ttm");
        SlabPipeline<T> pipe(*cur);
        for (index_t s = 0; s < pipe.total(); ++s) {
          tensor::Tensor<T>& slab = pipe.next();
          blas::gemm(T(1),
                     blas::MatView<const T>(tensor::unfolding_block(
                         static_cast<const tensor::Tensor<T>&>(slab), t, 0)),
                     blas::MatView<const T>(p.view()), T(0),
                     u.view().block(cur->slab_begin(s), 0,
                                    cur->slab_extent(s), r));
        }
        out.slabs_read += cur->num_slabs();
      }
      res.tucker.factors[t] = std::move(u);
      continue;
    }

    // Non-trailing mode, out of core: hierarchical SVD pass over slabs.
    const index_t m = cur_dims[n];
    core::ModeSvd<T> svd;
    {
      Workspace::WaterRegion region(ws, "stream.svd");
      SlabPipeline<T> pipe(*cur);
      if (method == core::SvdMethod::kGram) {
        blas::Matrix<T> g(m, m);
        for (index_t s = 0; s < pipe.total(); ++s) {
          tensor::Tensor<T>& slab = pipe.next();
          if (pos == 0) res.norm_squared += slab.norm_squared();
          blas::Matrix<T> gs = tensor::gram_of_unfolding(slab, n);
          blas::axpy(m * m, T(1), gs.data(), 1, g.data(), 1);
        }
        svd = core::svd_of_gram(g);
      } else if (method == core::SvdMethod::kRand) {
        // Per-chunk sketch (Minster/Li/Ballard), low-rank factors merged
        // as scaled bases: L L^T accumulates sum_c U_c S_c^2 U_c^T.
        TriangleReducer<T> red(m);
        double resid_total = 0;
        for (index_t s = 0; s < pipe.total(); ++s) {
          tensor::Tensor<T>& slab = pipe.next();
          const double snorm = slab.norm_squared();
          if (pos == 0) res.norm_squared += snorm;
          // Per-chunk energy budget eps^2 ||slab||^2 / N: the chunk
          // budgets sum to the mode's global budget.
          auto cs = core::rand_svd(
              slab, n, spec.is_fixed_rank() ? spec.ranks[n] : index_t{0},
              spec.budget_sq(snorm, nmodes), opt.rand);
          const index_t w = cs.u.cols();
          if (cs.sigma_sq.size() > static_cast<std::size_t>(w))
            resid_total += static_cast<double>(cs.sigma_sq.back());
          blas::Matrix<T> b(m, w);
          for (index_t j = 0; j < w; ++j) {
            const T sc = std::sqrt(cs.sigma_sq[static_cast<std::size_t>(j)]);
            for (index_t i = 0; i < m; ++i) b(i, j) = cs.u(i, j) * sc;
          }
          red.push_dense(blas::MatView<const T>(b.view()));
        }
        svd = core::svd_of_l(red.reduce(), core::SmallSvdBackend::kAuto);
        // Trailing residual pseudo-entry, as rand_svd itself reports.
        svd.sigma_sq.push_back(static_cast<T>(resid_total));
      } else {  // kQr / kStream: per-slab LQ, binary merge tree
        TriangleReducer<T> red(m);
        for (index_t s = 0; s < pipe.total(); ++s) {
          tensor::Tensor<T>& slab = pipe.next();
          if (pos == 0) res.norm_squared += slab.norm_squared();
          blas::Matrix<T> l = tensor::tensor_lq(slab, n);
          red.push(blas::MatView<const T>(l.view()));
        }
        svd = core::svd_of_l(red.reduce(), core::SmallSvdBackend::kAuto);
      }
      out.slabs_read += cur->num_slabs();
    }
    if (pos == 0) threshold_sq = spec.budget_sq(res.norm_squared, nmodes);
    blas::Matrix<T> u = core::truncate_mode(svd, spec, n, threshold_sq,
                                            res.mode_sigmas[n], res.ranks[n]);

    // Truncation pass: Y <- Y x_n U^T, slab in / repacked slab out. The
    // output grid is re-sized to the budget, so slabs widen as Y shrinks.
    tensor::Dims new_dims = cur_dims;
    new_dims[n] = res.ranks[n];
    detail::SpillFile& dst = spill[spill_slot];
    dst = detail::SpillFile(detail::make_spill_path(sdir));
    {
      Workspace::WaterRegion region(ws, "stream.ttm");
      const index_t out_slices =
          chunk_slices_for_budget<T>(new_dims, half);
      detail::SlabRepacker<T> repack(dst.path(), new_dims, out_slices);
      SlabPipeline<T> pipe(*cur);
      tensor::Tensor<T> shrunk;
      const auto ut = blas::MatView<const T>(u.view().t());
      for (index_t s = 0; s < pipe.total(); ++s) {
        tensor::Tensor<T>& slab = pipe.next();
        tensor::ttm_into(slab, n, ut, shrunk);
        repack.push(shrunk);
      }
      repack.close();
      out.slabs_read += cur->num_slabs();
      out.spill_bytes += bytes_of(new_dims);
    }
    res.tucker.factors[n] = std::move(u);

    auto next_src = std::make_unique<FileSource<T>>(dst.path());
    spill_src = std::move(next_src);
    cur = spill_src.get();
    cur_dims = new_dims;
    spill_slot ^= 1;
    spill[spill_slot].reset();  // the pass's input file is now superseded
  }

  if (is_resident) res.tucker.core = std::move(resident);
  out.arena_high_water = ws.high_water();
  return out;
}

/// Convenience: stream straight from a chunked tensor file.
template <class T>
StreamSthosvdResult<T> stream_sthosvd_file(
    const std::string& path, const core::TruncationSpec& spec,
    core::SvdMethod method = core::SvdMethod::kStream,
    const StreamOptions& opt = {}) {
  FileSource<T> src(path);
  return stream_sthosvd(src, spec, method, opt);
}

// ------------------------------------------------------ StreamingTucker

/// Online Tucker decomposition with O(core + triangles) persistent state.
///
/// build() makes two pipelined passes: (1) per non-trailing mode, merge
/// the slabs' LQ triangles of the *raw* unfoldings up a binary tree and
/// SVD the result (T-HOSVD bases: each mode's budget is eps^2 ||X||^2 / N,
/// so the classic sum-of-tails argument bounds the total error by eps);
/// (2) project every slab through the truncated bases and concatenate the
/// small projected slabs along the trailing mode, then solve the trailing
/// mode in memory. The projected tensor (prod(ranks) x I_t) must fit in
/// RAM -- that is the serving regime this class targets, where I_t (time)
/// grows but the per-step core stays small.
///
/// append(block) folds new trailing slices in WITHOUT touching old data:
/// the block's per-mode LQ triangles merge into the persistent ones
/// (exact -- the merged triangle equals the triangle of the concatenated
/// unfolding), the old core is rotated into the refreshed bases via the
/// small alignment matrices M_n = U'_n^T U_n, the new block is projected
/// directly, and only the trailing-mode SVD re-runs on the concatenation.
/// The result agrees with a from-scratch build() on the concatenated
/// stream up to the energy the old truncation discarded (<= eps ||X||),
/// which tests/stream_test.cpp checks against a rebuild.
template <class T>
class StreamingTucker {
 public:
  static StreamingTucker build(UnfoldingSource<T>& src,
                               const core::TruncationSpec& spec) {
    const tensor::Dims dims = src.dims();
    const std::size_t nmodes = dims.size();
    TUCKER_CHECK(nmodes >= 2, "StreamingTucker: need at least two modes");
    core::check_spec_and_order(spec, core::forward_order(nmodes), nmodes);
    const std::size_t t = nmodes - 1;

    StreamingTucker st;
    st.spec_ = spec;
    st.tri_.resize(nmodes);
    st.sigmas_.resize(nmodes);
    st.ranks_.assign(nmodes, 0);
    st.tk_.factors.resize(nmodes);

    // Pass 1: per-mode triangles of the raw unfoldings + ||X||^2.
    {
      std::vector<TriangleReducer<T>> red;
      red.reserve(t);
      for (std::size_t n = 0; n < t; ++n) red.emplace_back(dims[n]);
      SlabPipeline<T> pipe(src);
      for (index_t s = 0; s < pipe.total(); ++s) {
        tensor::Tensor<T>& slab = pipe.next();
        st.norm_sq_ += slab.norm_squared();
        for (std::size_t n = 0; n < t; ++n) {
          blas::Matrix<T> l = tensor::tensor_lq(slab, n);
          red[n].push(blas::MatView<const T>(l.view()));
        }
      }
      for (std::size_t n = 0; n < t; ++n) st.tri_[n] = red[n].reduce();
    }
    for (std::size_t n = 0; n < t; ++n) st.refresh_basis(n);

    // Pass 2: project every slab and concatenate along the trailing mode.
    tensor::Dims gdims = dims;
    for (std::size_t n = 0; n < t; ++n) gdims[n] = st.ranks_[n];
    tensor::Tensor<T> g(gdims);
    const index_t gslice = tensor::prod_before(gdims, t);
    {
      std::vector<blas::MatView<const T>> proj;
      proj.reserve(t);
      for (std::size_t n = 0; n < t; ++n)
        proj.push_back(
            blas::MatView<const T>(st.tk_.factors[n].view().t()));
      SlabPipeline<T> pipe(src);
      for (index_t s = 0; s < pipe.total(); ++s) {
        tensor::Tensor<T>& slab = pipe.next();
        tensor::Tensor<T> small = detail::ttm_chain_leading(slab, proj);
        std::memcpy(g.data() + src.slab_begin(s) * gslice, small.data(),
                    static_cast<std::size_t>(small.size()) * sizeof(T));
      }
    }
    st.refresh_trailing(std::move(g));
    return st;
  }

  /// Folds a block of new trailing-mode slices into the decomposition.
  void append(const tensor::Tensor<T>& block) {
    const std::size_t nmodes = tri_.size();
    const std::size_t t = nmodes - 1;
    TUCKER_CHECK(block.order() == nmodes,
                 "StreamingTucker: block order mismatch");
    for (std::size_t n = 0; n < t; ++n)
      TUCKER_CHECK(block.dim(n) == tk_.factors[n].rows(),
                   "StreamingTucker: block leading dims mismatch");
    const index_t delta = block.dim(t);
    TUCKER_CHECK(delta > 0, "StreamingTucker: empty block");
    norm_sq_ += block.norm_squared();

    // Keep the old bases around for the core rotation.
    std::vector<blas::Matrix<T>> old_u(nmodes);
    for (std::size_t n = 0; n < nmodes; ++n) old_u[n] = tk_.factors[n];
    const tensor::Dims old_core_dims = tk_.core.dims();

    // Merge the block's triangles (exact) and refresh each basis.
    for (std::size_t n = 0; n < t; ++n) {
      blas::Matrix<T> l = tensor::tensor_lq(block, n);
      merge_triangle(tri_[n], blas::MatView<const T>(l.view()));
      refresh_basis(n);
    }

    // Rotate the old compressed data into the new bases:
    // G_old = (core x_t U_t^old) x_{n<t} (U'_n^T U_n^old).
    std::vector<blas::Matrix<T>> align(t);
    std::vector<blas::MatView<const T>> align_v;
    align_v.reserve(t);
    for (std::size_t n = 0; n < t; ++n) {
      align[n] = blas::Matrix<T>(ranks_[n], old_core_dims[n]);
      blas::gemm(T(1),
                 blas::MatView<const T>(tk_.factors[n].view().t()),
                 blas::MatView<const T>(old_u[n].view()), T(0),
                 align[n].view());
      align_v.push_back(blas::MatView<const T>(align[n].view()));
    }
    tensor::Tensor<T> unfolded_t;
    tensor::ttm_into(tk_.core, t, blas::MatView<const T>(old_u[t].view()),
                     unfolded_t);
    tensor::Tensor<T> g_old = detail::ttm_chain_leading(unfolded_t, align_v);

    // Project the new block directly into the refreshed bases.
    std::vector<blas::MatView<const T>> proj;
    proj.reserve(t);
    for (std::size_t n = 0; n < t; ++n)
      proj.push_back(blas::MatView<const T>(tk_.factors[n].view().t()));
    tensor::Tensor<T> g_new = detail::ttm_chain_leading(block, proj);

    // Concatenate along the trailing mode and re-solve only that mode.
    tensor::Dims gdims = g_old.dims();
    gdims[t] += delta;
    tensor::Tensor<T> g(gdims);
    std::memcpy(g.data(), g_old.data(),
                static_cast<std::size_t>(g_old.size()) * sizeof(T));
    std::memcpy(g.data() + g_old.size(), g_new.data(),
                static_cast<std::size_t>(g_new.size()) * sizeof(T));
    refresh_trailing(std::move(g));
  }

  const core::TuckerTensor<T>& tucker() const { return tk_; }
  const std::vector<index_t>& ranks() const { return ranks_; }
  const std::vector<std::vector<T>>& mode_sigmas() const { return sigmas_; }
  double norm_squared() const { return norm_sq_; }

  /// Certified bound from the discarded tails (the free
  /// core::estimated_relative_error; the trailing mode's sigmas are those
  /// of the projected tensor, which only tightens the bound).
  double estimated_relative_error() const {
    return core::estimated_relative_error(sigmas_, ranks_, norm_sq_);
  }

 private:
  StreamingTucker() = default;

  double threshold_sq() const {
    return spec_.budget_sq(norm_sq_, tri_.size());
  }

  /// SVD of mode n's persistent triangle -> sigmas, rank, factor.
  void refresh_basis(std::size_t n) {
    tk_.factors[n] = core::truncate_mode(
        core::svd_of_l(tri_[n], core::SmallSvdBackend::kAuto), spec_, n,
        threshold_sq(), sigmas_[n], ranks_[n]);
  }

  /// Trailing-mode QR-SVD of the projected tensor + the new core.
  void refresh_trailing(tensor::Tensor<T> g) {
    const std::size_t t = tri_.size() - 1;
    tk_.factors[t] = core::truncate_mode(core::qr_svd(g, t), spec_, t,
                                         threshold_sq(), sigmas_[t], ranks_[t]);
    tensor::ttm_into(g, t, blas::MatView<const T>(tk_.factors[t].view().t()),
                     tk_.core);
  }

  core::TruncationSpec spec_;
  double norm_sq_ = 0;
  std::vector<blas::Matrix<T>> tri_;  // n < N-1: raw-unfolding triangles
  std::vector<std::vector<T>> sigmas_;
  std::vector<index_t> ranks_;
  core::TuckerTensor<T> tk_;
};

}  // namespace tucker::stream
