#pragma once
// Precision traits used throughout the library.
//
// The paper's contribution #2 is templating TuckerMPI over the working
// precision; every numerical component in this library is templated on a
// real scalar type T and consults these traits for machine epsilon and for
// the cost-model parameters that depend on word size.
//
// Each kernel accumulates in its storage type: the accuracy rung of an
// engine (eps for QR-SVD, sqrt(eps) for Gram-SVD) is read from T alone.

#include <cstddef>
#include <limits>
#include <string_view>
#include <type_traits>

namespace tucker {

// ------------------------------------------------------------ precision<T>

template <class T>
struct precision;

template <>
struct precision<float> {
  using type = float;
  static constexpr std::string_view name = "single";
  // Unit roundoff 2^-24; the paper quotes eps_s = 2^-23 ~ 1e-7 (the gap
  // between adjacent floats at 1), which is numeric_limits::epsilon().
  static constexpr float eps = std::numeric_limits<float>::epsilon();
  static constexpr std::size_t bytes_per_word = sizeof(float);
};

template <>
struct precision<double> {
  using type = double;
  static constexpr std::string_view name = "double";
  static constexpr double eps = std::numeric_limits<double>::epsilon();
  static constexpr std::size_t bytes_per_word = sizeof(double);
};

template <class T>
concept Real = std::is_same_v<T, float> || std::is_same_v<T, double>;

/// A one-value enum, kept only because benchmark/compress.cpp still passes
/// Accum::kNative as the trailing argument of eight calls. Exactly those
/// eight functions keep an unnamed, ignored trailing `Accum =
/// Accum::kNative`: core::sthosvd (positional), core::svd_of_l,
/// core::rand_svd, tensor::gram_of_unfolding, tensor::ttm_into,
/// tensor::sketch_unfolding_cols, tensor::unfolding_aat_multiply and
/// tensor::projected_gram. core::mode_svd passes it too, to reach
/// rand_svd's trailing known_norm_sq. ROADMAP item 9 drops the argument
/// from those calls and then deletes the enum and the eight parameters.
enum class Accum { kNative };

}  // namespace tucker
