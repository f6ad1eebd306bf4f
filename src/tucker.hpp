#pragma once
// Umbrella header: the full public API of the tucker-qrsvd library.
//
//   #include "tucker.hpp"
//
//   using namespace tucker;
//   auto result = core::sthosvd(x, core::TruncationSpec::tolerance(1e-3),
//                               core::SvdMethod::kQr);
//
// Layer map (see README.md / DESIGN.md):
//   parallel:: shared-memory thread pool under every kernel
//   blas::    dense kernels over strided views
//   la::      factorizations and dense eigen/SVD solvers
//   mpi::     simulated MPI runtime (threads + virtual clocks)
//   tensor::  dense tensors, unfoldings, TTM, preprocessing
//   dist::    processor grids, distributed tensors and kernels
//   core::    ST-HOSVD (sequential + parallel), Tucker objects
//   stream::  out-of-core / incremental drivers over slab sources
//   serve::   long-lived batched serving layer (queue + arena workers)
//   data::    synthetic dataset generators
//   io::      binary tensor / decomposition files (flat + chunked)

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/matview.hpp"
#include "common/check.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/par_reconstruct.hpp"
#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "core/truncation.hpp"
#include "core/svd_engine.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "dist/dist_tensor.hpp"
#include "dist/par_kernels.hpp"
#include "dist/par_preprocess.hpp"
#include "dist/processor_grid.hpp"
#include "dist/redistribute.hpp"
#include "io/chunked_tensor_io.hpp"
#include "io/dist_io.hpp"
#include "io/tensor_io.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/eig.hpp"
#include "lapack/householder.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tpqrt.hpp"
#include "lapack/tridiag_eig.hpp"
#include "serve/admission.hpp"
#include "serve/model_cache.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "simmpi/breakdown.hpp"
#include "stream/hier_svd.hpp"
#include "stream/stream_sthosvd.hpp"
#include "stream/unfolding_source.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/cost_model.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/gram.hpp"
#include "tensor/prepacked.hpp"
#include "tensor/preprocess.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"
#include "tensor/ttm.hpp"
