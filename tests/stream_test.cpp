// Tests for the out-of-core streaming subsystem: the chunked on-disk
// format, the hierarchical SVD building blocks, the stream_sthosvd driver
// (all four engines), the incremental StreamingTucker, and the workspace
// watermark instrumentation that turns "RSS stays O(slab)" into an
// assertable property.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/sthosvd.hpp"
#include "core/svd_engine.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_tensor.hpp"
#include "io/chunked_tensor_io.hpp"
#include "stream/hier_svd.hpp"
#include "stream/stream_sthosvd.hpp"
#include "stream/unfolding_source.hpp"
#include "tensor/ttm.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;
using tensor::Dims;
using tensor::Tensor;

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Tensor<double> decaying_tensor(const Dims& dims, double floor,
                               std::uint64_t seed) {
  std::vector<data::DecayProfile> profiles(
      dims.size(), data::DecayProfile::geometric(1.0, floor));
  return data::tensor_with_spectra(dims, profiles, seed);
}

template <class T>
bool same_bits(const Tensor<T>& a, const Tensor<T>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(T)) == 0;
}

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) *
                         sizeof(T)) == 0;
}

/// max |U^T U - I|: how far from orthonormal a factor's columns are.
template <class T>
double orthonormality_defect(const Matrix<T>& u) {
  Matrix<T> g(u.cols(), u.cols());
  blas::gemm(T(1), MatView<const T>(u.view().t()),
             MatView<const T>(u.view()), T(0), g.view());
  double worst = 0;
  for (index_t i = 0; i < g.rows(); ++i)
    for (index_t j = 0; j < g.cols(); ++j)
      worst = std::max(worst, std::abs(static_cast<double>(g(i, j)) -
                                       (i == j ? 1.0 : 0.0)));
  return worst;
}

// ------------------------------------------------- workspace watermarks

TEST(WorkspaceWatermarkTest, HighWaterTracksPeakAcrossFrames) {
  Workspace& ws = Workspace::local();
  ws.reset_high_water();
  const std::size_t base = ws.bytes_in_use();
  {
    auto f = ws.frame();
    ws.get<double>(1000);  // 8000 bytes
    {
      auto g = ws.frame();
      ws.get<double>(500);  // peak: base + ~12000
    }
    // Inner frame rewound; the high-water mark must remember the peak.
    EXPECT_GE(ws.high_water(), base + 12000);
  }
  EXPECT_EQ(ws.bytes_in_use(), base);
  EXPECT_GE(ws.high_water(), base + 12000);
  ws.reset_high_water();
  EXPECT_EQ(ws.high_water(), base);
}

TEST(WorkspaceWatermarkTest, RegionMarksAttributePeaks) {
  Workspace& ws = Workspace::local();
  ws.clear_region_marks();
  EXPECT_EQ(ws.region_high_water("phase.a"), 0u);
  {
    Workspace::WaterRegion r(ws, "phase.a");
    auto f = ws.frame();
    ws.get<double>(2000);
  }
  {
    Workspace::WaterRegion r(ws, "phase.b");
    auto f = ws.frame();
    ws.get<double>(10);
  }
  EXPECT_GE(ws.region_high_water("phase.a"), 16000u);
  EXPECT_LT(ws.region_high_water("phase.b"), 16000u);
  // Repeat visits record the max over visits.
  {
    Workspace::WaterRegion r(ws, "phase.b");
    auto f = ws.frame();
    ws.get<double>(3000);
  }
  EXPECT_GE(ws.region_high_water("phase.b"), 24000u);
  // Nested regions: the inner peak also counts toward the outer region.
  ws.clear_region_marks();
  {
    Workspace::WaterRegion outer(ws, "outer");
    auto f = ws.frame();
    ws.get<double>(100);
    {
      Workspace::WaterRegion inner(ws, "inner");
      auto g = ws.frame();
      ws.get<double>(4000);
    }
  }
  EXPECT_GE(ws.region_high_water("inner"), 32000u);
  EXPECT_GE(ws.region_high_water("outer"), ws.region_high_water("inner"));
  ws.clear_region_marks();
  EXPECT_EQ(ws.region_high_water("outer"), 0u);
}

// ------------------------------------------------------------ chunked io

TEST(ChunkedIoTest, RoundTripAcrossSlabGrids) {
  auto x = data::random_tensor<double>({5, 4, 7}, 11);
  for (index_t slices : {1, 2, 3, 7}) {
    const auto path = tmp_path("chunk_rt.tkc");
    io::write_chunked_tensor(path, x, slices);
    io::ChunkedTensorReader<double> r(path);
    EXPECT_EQ(r.dims(), x.dims());
    EXPECT_EQ(r.slab_slices(), slices);
    EXPECT_EQ(r.num_slabs(), (7 + slices - 1) / slices);
    Tensor<double> back(x.dims()), slab;
    const index_t slice_elems = x.size() / x.dims().back();
    for (index_t s = 0; s < r.num_slabs(); ++s) {
      r.read_slab(s, slab);
      EXPECT_EQ(slab.dim(2), r.slab_extent(s));
      std::memcpy(back.data() + r.slab_begin(s) * slice_elems, slab.data(),
                  static_cast<std::size_t>(slab.size()) * sizeof(double));
    }
    EXPECT_TRUE(same_bits(x, back)) << "slices=" << slices;
    std::remove(path.c_str());
  }
}

TEST(ChunkedIoTest, AppendExtendsTrailingMode) {
  auto x = data::random_tensor<float>({3, 4, 6}, 12);
  auto block = data::random_tensor<float>({3, 4, 5}, 13);
  const auto path = tmp_path("chunk_append.tkc");
  io::write_chunked_tensor(path, x, 2);  // 6 % 2 == 0: appendable
  io::append_chunked_slices(path, block);
  io::ChunkedTensorReader<float> r(path);
  ASSERT_EQ(r.dims(), (Dims{3, 4, 11}));
  EXPECT_EQ(r.num_slabs(), 6);  // ceil(11 / 2)
  Tensor<float> back(r.dims()), slab;
  const index_t slice_elems = back.size() / 11;
  for (index_t s = 0; s < r.num_slabs(); ++s) {
    r.read_slab(s, slab);
    std::memcpy(back.data() + r.slab_begin(s) * slice_elems, slab.data(),
                static_cast<std::size_t>(slab.size()) * sizeof(float));
  }
  for (index_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(back.data()[i], x.data()[i]);
  for (index_t i = 0; i < block.size(); ++i)
    EXPECT_EQ(back.data()[x.size() + i], block.data()[i]);
  std::remove(path.c_str());
}

TEST(ChunkedIoTest, TryOpenReportsTypedErrors) {
  // Missing file.
  auto missing =
      io::ChunkedTensorReader<double>::try_open(tmp_path("nope.tkc"));
  EXPECT_EQ(missing.status, io::IoStatus::kOpenFailed);

  // Garbage magic.
  const auto bad = tmp_path("chunk_bad.tkc");
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    const char junk[64] = "definitely not a chunked tensor";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  auto r_bad = io::ChunkedTensorReader<double>::try_open(bad);
  EXPECT_EQ(r_bad.status, io::IoStatus::kBadMagic);
  std::remove(bad.c_str());

  // Valid double file opened as float.
  auto x = data::random_tensor<double>({4, 3, 4}, 14);
  const auto path = tmp_path("chunk_err.tkc");
  io::write_chunked_tensor(path, x, 2);
  auto r_prec = io::ChunkedTensorReader<float>::try_open(path);
  EXPECT_EQ(r_prec.status, io::IoStatus::kBadPrecision);

  // Truncated payload -> kShortFile with a size diagnosis.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 64);
  auto r_short = io::ChunkedTensorReader<double>::try_open(path);
  EXPECT_EQ(r_short.status, io::IoStatus::kShortFile);
  EXPECT_NE(r_short.detail.find("bytes"), std::string::npos);

  // Inconsistent num_slabs header field -> kBadHeader.
  std::filesystem::resize_file(path, full_size);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    const std::uint64_t wrong = 99;
    std::fseek(f,
               static_cast<long>(io::detail::chunked_num_slabs_offset(3)),
               SEEK_SET);
    std::fwrite(&wrong, sizeof wrong, 1, f);
    std::fclose(f);
  }
  auto r_hdr = io::ChunkedTensorReader<double>::try_open(path);
  EXPECT_EQ(r_hdr.status, io::IoStatus::kBadHeader);
  std::remove(path.c_str());
}

TEST(ChunkedIoDeathTest, AbortingOpenRejectsGarbage) {
  const auto path = tmp_path("chunk_garbage.tkc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[32] = "junk";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  EXPECT_DEATH((void)io::ChunkedTensorReader<double>(path),
               "corrupt chunked tensor file");
  std::remove(path.c_str());
}

// ------------------------------------------------ hierarchical SVD bricks

TEST(HierSvdTest, SingleChunkStreamSvdIsBitwiseQrSvd) {
  auto x = decaying_tensor({9, 8, 7}, 1e-6, 21);
  for (std::size_t n = 0; n < 3; ++n) {
    auto qr = core::qr_svd(x, n);
    auto st = core::stream_svd(x, n, /*chunk_slices=*/x.dims().back());
    ASSERT_EQ(st.sigma_sq.size(), qr.sigma_sq.size());
    for (std::size_t i = 0; i < qr.sigma_sq.size(); ++i)
      EXPECT_EQ(st.sigma_sq[i], qr.sigma_sq[i]) << "mode " << n;
    EXPECT_TRUE(same_bits(st.u, qr.u)) << "mode " << n;
  }
}

TEST(HierSvdTest, MultiChunkTriangleMatchesDirectLq) {
  // The merged triangle's Gram must equal the direct one's: L L^T is the
  // unfolding's Gram however the columns were split.
  auto x = decaying_tensor({8, 7, 10}, 1e-6, 22);
  for (index_t chunk : {1, 3, 4}) {
    auto direct = tensor::tensor_lq(x, 0);
    auto merged = stream::chunked_unfolding_lq(x, 0, chunk);
    const index_t m = direct.rows();
    double worst = 0, scale = 0;
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j) {
        double a = 0, b = 0;
        for (index_t k = 0; k < m; ++k) {
          a += direct(i, k) * direct(j, k);
          b += merged(i, k) * merged(j, k);
        }
        worst = std::max(worst, std::abs(a - b));
        scale = std::max(scale, std::abs(a));
      }
    EXPECT_LT(worst, 1e-13 * scale) << "chunk=" << chunk;
  }
}

TEST(HierSvdTest, TsqrAccumulatorMatchesStackedGram) {
  // R^T R must reproduce A^T A for a row-split A, including blocks with
  // fewer rows than columns (the wide out-of-core trailing case).
  Rng rng(23);
  const index_t c = 12;
  std::vector<Matrix<double>> blocks;
  blocks.emplace_back(5, c);
  blocks.emplace_back(3, c);
  blocks.emplace_back(9, c);
  for (auto& b : blocks)
    for (index_t i = 0; i < b.rows(); ++i)
      for (index_t j = 0; j < c; ++j) b(i, j) = rng.normal<double>();
  Matrix<double> ata(c, c);
  for (const auto& b : blocks)
    blas::gemm(1.0, MatView<const double>(b.view().t()),
               MatView<const double>(b.view()), 1.0, ata.view());
  stream::TsqrAccumulator<double> acc(c);
  for (auto& b : blocks) acc.push(b.view());
  const auto& r = acc.r();
  double worst = 0;
  for (index_t i = 0; i < c; ++i)
    for (index_t j = 0; j < c; ++j) {
      double rr = 0;
      for (index_t k = 0; k <= std::min(i, j); ++k)
        rr += r.cview()(k, i) * r.cview()(k, j);
      worst = std::max(worst, std::abs(rr - ata(i, j)));
    }
  EXPECT_LT(worst, 1e-12 * std::abs(ata(0, 0)));
}

// -------------------------------------------------------- slab pipeline

TEST(SlabPipelineTest, DeliversEverySlabInOrder) {
  auto x = data::random_tensor<double>({4, 3, 11}, 31);
  stream::InMemorySource<double> src(x, 3);
  ASSERT_EQ(src.num_slabs(), 4);
  stream::SlabPipeline<double> pipe(src);
  Tensor<double> direct;
  for (index_t s = 0; s < pipe.total(); ++s) {
    Tensor<double>& got = pipe.next();
    src.read_slab(s, direct);
    ASSERT_EQ(got.dims(), direct.dims()) << "slab " << s;
    EXPECT_TRUE(same_bits(got, direct)) << "slab " << s;
  }
}

TEST(SlabPipelineTest, DestructorAbortsCleanlyMidStream) {
  auto x = data::random_tensor<double>({4, 3, 10}, 32);
  stream::InMemorySource<double> src(x, 2);
  stream::SlabPipeline<double> pipe(src);
  (void)pipe.next();  // consume one of five, then drop the pipeline
}

TEST(AppendStreamTest, BlocksBecomeRaggedSlabs) {
  stream::AppendStream<double> as({3, 4, 0});
  as.append(data::random_tensor<double>({3, 4, 2}, 33));
  as.append(data::random_tensor<double>({3, 4, 5}, 34));
  as.append(data::random_tensor<double>({3, 4, 1}, 35));
  EXPECT_EQ(as.dims(), (Dims{3, 4, 8}));
  EXPECT_EQ(as.num_slabs(), 3);
  EXPECT_EQ(as.slab_begin(1), 2);
  EXPECT_EQ(as.slab_extent(1), 5);
  EXPECT_EQ(as.slab_begin(2), 7);
  Tensor<double> slab;
  as.read_slab(2, slab);
  EXPECT_EQ(slab.dims(), (Dims{3, 4, 1}));
}

// --------------------------------------------------- stream_sthosvd core

class StreamDriverTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_max_threads(initial_); }
  int initial_ = parallel::max_threads();
};

// Sets the pool width for a scope and restores the width it found.
struct WidthGuard {
  explicit WidthGuard(int width) { parallel::set_max_threads(width); }
  ~WidthGuard() { parallel::set_max_threads(saved); }
  WidthGuard(const WidthGuard&) = delete;
  WidthGuard& operator=(const WidthGuard&) = delete;
  int saved = parallel::max_threads();
};

TEST_F(StreamDriverTest, FittingSourceDelegatesBitwise) {
  auto x = decaying_tensor({10, 9, 8}, 1e-7, 41);
  const auto spec = core::TruncationSpec::tolerance(1e-4);
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  stream::InMemorySource<double> src(x, 3);
  stream::StreamOptions opt;
  opt.chunk_bytes = 1 << 20;  // whole tensor fits
  auto out = stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt);
  EXPECT_EQ(out.gathered_after, 0);
  EXPECT_EQ(out.spill_bytes, 0u);
  EXPECT_EQ(out.decomposition.ranks, ref.ranks);
  EXPECT_TRUE(same_bits(out.decomposition.tucker.core, ref.tucker.core));
  for (std::size_t n = 0; n < 3; ++n)
    EXPECT_TRUE(
        same_bits(out.decomposition.tucker.factors[n], ref.tucker.factors[n]))
        << "mode " << n;
}

TEST_F(StreamDriverTest, OutOfCoreMatchesInMemoryAcrossEngines) {
  auto x = decaying_tensor({12, 11, 10, 18}, 1e-9, 42);
  const auto spec = core::TruncationSpec::tolerance(1e-5);
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  const double ref_err = core::relative_error(x, ref.tucker);
  stream::StreamOptions opt;
  opt.chunk_bytes = 96 * 1024;  // forces several out-of-core modes
  opt.spill_dir = ::testing::TempDir();
  for (auto method : {core::SvdMethod::kStream, core::SvdMethod::kGram,
                      core::SvdMethod::kRand}) {
    stream::InMemorySource<double> src(x, 3);
    auto out = stream::stream_sthosvd(src, spec, method, opt);
    EXPECT_GT(out.spill_bytes, 0u) << "method " << static_cast<int>(method);
    EXPECT_NEAR(out.decomposition.norm_squared, ref.norm_squared,
                1e-9 * ref.norm_squared);
    // Same certified-error regime and essentially the in-memory quality.
    EXPECT_LE(out.decomposition.estimated_relative_error(), 1e-5);
    const double err = core::relative_error(x, out.decomposition.tucker);
    EXPECT_LE(err, std::max(2 * ref_err, 1e-5))
        << "method " << static_cast<int>(method);
    if (method == core::SvdMethod::kStream) {
      EXPECT_EQ(out.decomposition.ranks, ref.ranks);
      EXPECT_NEAR(err, ref_err, 0.1 * ref_err);
    }
  }
}

TEST_F(StreamDriverTest, WideTrailingModeStaysOrthonormal) {
  // Regression: when the trailing mode is solved out of core and its
  // unfolding is wide (few slices, many core columns), the C x C TSQR
  // triangle is heavily rank-deficient and the bidiagonal small SVD used
  // to return right vectors bad enough to break U = A V S^-1 (defect
  // ~0.5). The driver now uses the Jacobi backend there.
  auto x = decaying_tensor({8, 8, 6}, 1e-9, 43);
  const auto spec = core::TruncationSpec::tolerance(1e-5);
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  const double ref_err = core::relative_error(x, ref.tucker);
  stream::StreamOptions opt;
  opt.chunk_bytes = 1024;
  opt.spill_dir = ::testing::TempDir();
  stream::InMemorySource<double> src(x, 2);
  auto out = stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt);
  EXPECT_EQ(out.gathered_after, -1);  // trailing mode really ran out of core
  EXPECT_LT(orthonormality_defect(out.decomposition.tucker.factors[2]), 1e-8);
  const double err = core::relative_error(x, out.decomposition.tucker);
  EXPECT_LE(err, std::max(1.5 * ref_err, 1e-5));
}

TEST_F(StreamDriverTest, TallTrailingModeExactBackProjection) {
  auto x = decaying_tensor({4, 3, 16}, 1e-7, 44);
  const auto spec = core::TruncationSpec::fixed_ranks({3, 3, 8});
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  stream::StreamOptions opt;
  opt.chunk_bytes = 1200;
  opt.spill_dir = ::testing::TempDir();
  stream::InMemorySource<double> src(x, 4);
  auto out = stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt);
  EXPECT_EQ(out.gathered_after, -1);
  // The kept trailing sigmas reach the spectrum floor (1e-7), so the
  // 1/sigma back-projection amplifies roundoff to ~eps/sigma_min.
  EXPECT_LT(orthonormality_defect(out.decomposition.tucker.factors[2]),
            1e-7);
  const double err = core::relative_error(x, out.decomposition.tucker);
  const double ref_err = core::relative_error(x, ref.tucker);
  EXPECT_LE(err, std::max(2 * ref_err, 1e-8));
}

TEST_F(StreamDriverTest, ResultBitwiseIndependentOfThreadWidth) {
  // Runs on the default kAuto small-SVD dispatch: unpinned kAuto resolves
  // width-independently (jacobi_pipeline_test pins the resolution), so
  // this sweep covers the default streaming path bit for bit.
  auto x = decaying_tensor({10, 9, 8, 14}, 1e-8, 45);
  const auto spec = core::TruncationSpec::fixed_ranks({5, 5, 4, 6});
  stream::StreamOptions opt;
  opt.chunk_bytes = 48 * 1024;
  opt.spill_dir = ::testing::TempDir();
  std::vector<core::SthosvdResult<double>> runs;
  for (int w : {1, 2, 7}) {
    parallel::set_max_threads(w);
    stream::InMemorySource<double> src(x, 3);
    runs.push_back(std::move(
        stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt)
            .decomposition));
  }
  for (std::size_t k = 1; k < runs.size(); ++k) {
    EXPECT_TRUE(same_bits(runs[k].tucker.core, runs[0].tucker.core))
        << "width run " << k;
    for (std::size_t n = 0; n < 4; ++n)
      EXPECT_TRUE(same_bits(runs[k].tucker.factors[n],
                            runs[0].tucker.factors[n]))
          << "width run " << k << " mode " << n;
  }
}

TEST_F(StreamDriverTest, FileSourceMatchesInMemorySource) {
  auto x = decaying_tensor({9, 8, 7, 12}, 1e-8, 46);
  const auto spec = core::TruncationSpec::tolerance(1e-4);
  stream::StreamOptions opt;
  opt.chunk_bytes = 32 * 1024;
  opt.spill_dir = ::testing::TempDir();
  stream::InMemorySource<double> mem(x, 3);
  auto a = stream::stream_sthosvd(mem, spec, core::SvdMethod::kStream, opt);
  const auto path = tmp_path("stream_src.tkc");
  io::write_chunked_tensor(path, x, 3);
  auto b = stream::stream_sthosvd_file<double>(path, spec,
                                               core::SvdMethod::kStream, opt);
  EXPECT_EQ(a.decomposition.ranks, b.decomposition.ranks);
  EXPECT_TRUE(
      same_bits(a.decomposition.tucker.core, b.decomposition.tucker.core));
  for (std::size_t n = 0; n < 4; ++n)
    EXPECT_TRUE(same_bits(a.decomposition.tucker.factors[n],
                          b.decomposition.tucker.factors[n]));
  std::remove(path.c_str());
}

TEST_F(StreamDriverTest, RaggedAppendStreamSourceWorks) {
  stream::AppendStream<double> as({7, 6, 0});
  auto full = decaying_tensor({7, 6, 9}, 1e-6, 47);
  const index_t slice = 42;
  index_t done = 0;
  for (index_t ext : {3, 2, 4}) {
    Tensor<double> block({7, 6, ext});
    std::memcpy(block.data(), full.data() + done * slice,
                static_cast<std::size_t>(ext * slice) * sizeof(double));
    as.append(block);
    done += ext;
  }
  const auto spec = core::TruncationSpec::tolerance(1e-4);
  stream::StreamOptions opt;
  opt.chunk_bytes = 800;  // keeps it out of core despite the tiny tensor
  opt.spill_dir = ::testing::TempDir();
  auto out = stream::stream_sthosvd(as, spec, core::SvdMethod::kStream, opt);
  auto ref = core::sthosvd(full, spec, core::SvdMethod::kQr);
  EXPECT_EQ(out.decomposition.ranks, ref.ranks);
  EXPECT_NEAR(core::relative_error(full, out.decomposition.tucker),
              core::relative_error(full, ref.tucker), 1e-6);
}

TEST_F(StreamDriverTest, SinglePrecisionOutOfCore) {
  auto xd = decaying_tensor({10, 9, 8, 12}, 1e-5, 48);
  auto x = data::round_tensor_to<float>(xd);
  const auto spec = core::TruncationSpec::tolerance(1e-3);
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  stream::StreamOptions opt;
  opt.chunk_bytes = 16 * 1024;
  opt.spill_dir = ::testing::TempDir();
  stream::InMemorySource<float> src(x, 3);
  auto out = stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt);
  EXPECT_GT(out.spill_bytes, 0u);
  EXPECT_EQ(out.decomposition.ranks, ref.ranks);
  EXPECT_LE(core::relative_error(x, out.decomposition.tucker),
            std::max(2.0 * core::relative_error(x, ref.tucker), 1e-3));
}

// ----------------------------------------------- the acceptance criterion

TEST_F(StreamDriverTest, DecomposesEightTimesTheBudgetWithinArenaBound) {
  // >= 8x the chunk budget, peak arena < 2x budget (slabs are sized to
  // budget/2; see the driver comment), and the in-memory error. This is
  // the ISSUE's acceptance test.
  const Dims dims{16, 14, 12, 104};
  auto x = decaying_tensor(dims, 1e-9, 49);
  const std::size_t budget = 256 * 1024;
  ASSERT_GE(static_cast<std::size_t>(x.size()) * sizeof(double), 8 * budget);
  const auto spec = core::TruncationSpec::fixed_ranks({5, 5, 5, 5});

  stream::StreamOptions opt;
  opt.chunk_bytes = budget;
  opt.spill_dir = ::testing::TempDir();
  stream::InMemorySource<double> src(x, 6);  // 129 KiB slabs (= budget/2)
  Workspace& ws = Workspace::local();
  ws.clear_region_marks();
  auto out = stream::stream_sthosvd(src, spec, core::SvdMethod::kStream, opt);

  // O(slab) arena: the whole run stayed under twice the budget.
  EXPECT_LT(out.arena_high_water, 2 * budget);
  EXPECT_GT(ws.region_high_water("stream.svd"), 0u);
  EXPECT_GT(ws.region_high_water("stream.ttm"), 0u);
  // It went resident only once three modes had shrunk the tensor under
  // half the budget.
  EXPECT_EQ(out.gathered_after, 3);
  EXPECT_GT(out.spill_bytes, 0u);
  EXPECT_GT(out.slabs_read, src.num_slabs());

  // The in-memory driver on the same tensor: same compression error, much
  // larger arena peak (it factors whole unfoldings). Measured at width 1,
  // where every TSQR leaf runs in this thread's arena: wider, the leaves
  // run on pool workers and on this thread's chunk arena, whose scratch
  // this mark does not see.
  const WidthGuard one_thread(1);
  ws.reset_high_water();
  auto ref = core::sthosvd(x, spec, core::SvdMethod::kQr);
  const std::size_t inmem_hwm = ws.high_water();
  EXPECT_LT(out.arena_high_water, inmem_hwm);
  const double ref_err = core::relative_error(x, ref.tucker);
  const double err = core::relative_error(x, out.decomposition.tucker);
  EXPECT_NEAR(err, ref_err, 0.05 * ref_err);
}

// ------------------------------------------------------ StreamingTucker

TEST(StreamingTuckerTest, BuildMatchesBatchQuality) {
  auto x = decaying_tensor({10, 9, 20}, 1e-8, 51);
  const auto spec = core::TruncationSpec::tolerance(1e-4);
  stream::InMemorySource<double> src(x, 4);
  auto st = stream::StreamingTucker<double>::build(src, spec);
  EXPECT_LE(st.estimated_relative_error(), 1e-4);
  EXPECT_LE(core::relative_error(x, st.tucker()), 1e-4);
  EXPECT_NEAR(st.norm_squared(), x.norm_squared(),
              1e-9 * x.norm_squared());
}

TEST(StreamingTuckerTest, AppendAgreesWithRebuild) {
  auto full = decaying_tensor({9, 8, 24}, 1e-8, 52);
  const auto spec = core::TruncationSpec::tolerance(1e-4);
  const index_t slice = 72;

  // Build on the first 16 slices, then append the last 8 in two blocks.
  stream::AppendStream<double> head({9, 8, 0});
  {
    Tensor<double> first({9, 8, 16});
    std::memcpy(first.data(), full.data(), sizeof(double) * 16 * slice);
    head.append(first);
  }
  auto st = stream::StreamingTucker<double>::build(head, spec);
  for (index_t begin : {16, 21}) {
    const index_t ext = begin == 16 ? 5 : 3;
    Tensor<double> block({9, 8, ext});
    std::memcpy(block.data(), full.data() + begin * slice,
                sizeof(double) * static_cast<std::size_t>(ext * slice));
    st.append(block);
  }

  stream::InMemorySource<double> all(full, 6);
  auto rebuilt = stream::StreamingTucker<double>::build(all, spec);

  // Both certify the tolerance; the incremental result may only lose the
  // energy the earlier truncations discarded (<= eps ||X||), so its true
  // error stays within a small multiple of the tolerance.
  EXPECT_NEAR(st.norm_squared(), full.norm_squared(),
              1e-9 * full.norm_squared());
  const double err_inc = core::relative_error(full, st.tucker());
  const double err_re = core::relative_error(full, rebuilt.tucker());
  EXPECT_LE(err_re, 1e-4);
  EXPECT_LE(err_inc, 2e-4);
  EXPECT_LE(err_inc, 3 * err_re + 1e-12);
  // Ranks agree up to the usual threshold-edge wobble.
  for (std::size_t n = 0; n < 3; ++n)
    EXPECT_NEAR(static_cast<double>(st.ranks()[n]),
                static_cast<double>(rebuilt.ranks()[n]), 2.0)
        << "mode " << n;
}

}  // namespace
}  // namespace tucker
