#pragma once
// Gram matrix of a tensor unfolding: G = X_(n) * X_(n)^T.
//
// This is the flop-dominant kernel of TuckerMPI's Gram-SVD path, computed
// as successive symmetric rank-k updates over the row-major unfolding
// blocks ([6, Alg 2]); mode 0 uses the column-major unfolding directly.
// Forming the Gram matrix squares the condition number -- the source of the
// sqrt(eps) accuracy floor the paper's QR-SVD removes.

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/precision.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

/// G = X_(n) X_(n)^T (I_n x I_n, symmetric), accumulated in working
/// precision exactly like TuckerMPI's syrk-based implementation. The bits
/// are those of one syrk per block, at every thread width: the middle
/// modes run as one block-sequence syrk (blas::syrk_blocks), whose steps
/// pack several narrow blocks at once and fan out over row bands.
template <class T>
blas::Matrix<T> gram_of_unfolding(const Tensor<T>& x, std::size_t n,
                                  Accum = Accum::kNative) {
  TUCKER_CHECK(n < x.order(), "gram_of_unfolding: mode out of range");
  const index_t m = x.dim(n);
  blas::Matrix<T> g(m, m);
  if (x.size() == 0) return g;

  if (n == 0) {
    blas::syrk(T(1), unfolding_mode0(x), T(0), g.view());
  } else {
    const MatView<const T> b0 = unfolding_block(x, n, 0);
    blas::syrk_blocks(T(1), b0, unfolding_num_blocks(x, n),
                      b0.rows() * b0.cols(), T(0), g.view());
  }
  return g;
}

}  // namespace tucker::tensor
