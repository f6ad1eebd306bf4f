#pragma once
// Precision traits used throughout the library.
//
// The paper's contribution #2 is templating TuckerMPI over the working
// precision; every numerical component in this library is templated on a
// real scalar type T and consults these traits for machine epsilon and for
// the cost-model parameters that depend on word size.
//
// Three layers live here:
//   * precision<T>  -- name/eps/bytes_per_word for each storage type.
//   * accum_for<T> / wide_t<T> -- the wide-accumulator trait behind
//     Accum::kWide: fp32 storage pairs with fp64 register tiles, fp64
//     storage is already as wide as we go.
//   * Accum -- the per-call choice threaded through SthosvdOptions and the
//     tensor kernels (SthosvdOptions::accum, default kNative).

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

// ------------------------------------------------- wide-accumulator traits

/// Register-tile accumulator type used when a kernel runs with
/// Accum::kWide: fp32 storage accumulates in fp64; fp64 storage has no
/// wider native type, so wide degenerates to native (one instantiation,
/// bitwise-identical results).
template <class T>
struct accum_for {
  using type = T;
};

template <>
struct accum_for<float> {
  using type = double;
};

template <class T>
using wide_t = typename accum_for<T>::type;

/// Accumulator-width knob carried by SthosvdOptions and threaded through
/// gram/ttm/sketch/svd dispatch. kNative keeps the historical behavior
/// (accumulate at storage precision); kWide loads/stores storage-width
/// words but keeps every register tile and dot partial in wide_t<T>; the
/// LQ and the small SVD always run at storage precision. Flop credits are
/// unchanged (same operation count); word-traffic credits stay at storage
/// width -- that split is the whole point (satellite: flop precision !=
/// word width).
enum class Accum {
  kNative,
  kWide,
};

}  // namespace tucker
