#include "fft/stockham.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/tensor.h"
#include "fft/factor.h"
#include "fft/radix.h"

namespace repro::fft {
namespace {

// One Stockham stage of radix R over all rows:
//   y[k + m*(R*j + r)] = W(j, R*l)^r * sum_q omega_R^(r*q) * x[k + m*(j + l*q)]
// with n = R*l*m, W(j, N) = tw[j * n/N] and indices scaled by point_stride.
template <typename T, std::size_t R>
void stage(const cx<T>* src, cx<T>* dst, const MultirowLayout& lo,
           std::size_t l, std::size_t m, const TwiddleTable<T>& tw,
           int sign) {
  const std::size_t ps = lo.point_stride;
  for (std::size_t j = 0; j < l; ++j) {
    // Twiddles W^r = tw[j*m*r]; r*j*m < n always (r < R, j < l, R*l*m = n).
    cx<T> w[R];
    w[0] = cx<T>{1, 0};
    for (std::size_t r = 1; r < R; ++r) {
      w[r] = tw[j * m * r];
    }
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t in0 = ps * (k + m * j);
      const std::size_t out0 = ps * (k + m * R * j);
      const std::size_t qs = ps * (m * l);   // stride between the R inputs
      const std::size_t rs = ps * m;         // stride between the R outputs
      for (std::size_t row = 0; row < lo.nrows; ++row) {
        const std::size_t ro = row * lo.row_stride;
        if constexpr (R == 2) {
          const cx<T> a = src[ro + in0];
          const cx<T> b = src[ro + in0 + qs];
          dst[ro + out0] = a + b;
          dst[ro + out0 + rs] = w[1] * (a - b);
        } else {
          cx<T> v[R];
          for (std::size_t q = 0; q < R; ++q) {
            v[q] = src[ro + in0 + q * qs];
          }
          if constexpr (R == 3) {
            fft3(v, sign);
          } else if constexpr (R == 4) {
            fft4(v, sign);
          } else if constexpr (R == 5) {
            fft5(v, sign);
          } else {
            fft7(v, sign);
          }
          dst[ro + out0] = v[0];
          for (std::size_t r = 1; r < R; ++r) {
            dst[ro + out0 + r * rs] = w[r] * v[r];
          }
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void stockham_multirow(cx<T>* data, cx<T>* scratch, const MultirowLayout& lo,
                       const TwiddleTable<T>& tw) {
  const auto stages = radix_schedule(lo.n);
  REPRO_CHECK_MSG(lo.n <= 1 || !stages.empty(),
                  "stockham_multirow handles 7-smooth lengths only; got n=" +
                      describe_size(lo.n) +
                      " — route sizes with a prime factor > 7 through the "
                      "Bluestein fallback (fft/bluestein.h)");
  stockham_multirow<T>(data, scratch, lo, tw, stages);
}

template <typename T>
void stockham_multirow(cx<T>* data, cx<T>* scratch, const MultirowLayout& lo,
                       const TwiddleTable<T>& tw,
                       std::span<const StageSpec> stages) {
  REPRO_CHECK(tw.size() == lo.n);
  const int sign = direction_sign(tw.direction());

  const cx<T>* src = data;
  cx<T>* dst = scratch;
  cx<T>* ping = data;
  cx<T>* pong = scratch;

  for (const StageSpec& st : stages) {
    switch (st.radix) {
      case 2:
        stage<T, 2>(src, dst, lo, st.l, st.m, tw, sign);
        break;
      case 3:
        stage<T, 3>(src, dst, lo, st.l, st.m, tw, sign);
        break;
      case 4:
        stage<T, 4>(src, dst, lo, st.l, st.m, tw, sign);
        break;
      case 5:
        stage<T, 5>(src, dst, lo, st.l, st.m, tw, sign);
        break;
      default:
        stage<T, 7>(src, dst, lo, st.l, st.m, tw, sign);
        break;
    }
    std::swap(ping, pong);
    src = ping;
    dst = pong;
  }

  if (src != data) {
    // Odd number of stages: copy the result back into data.
    for (std::size_t row = 0; row < lo.nrows; ++row) {
      const std::size_t ro = row * lo.row_stride;
      for (std::size_t p = 0; p < lo.n; ++p) {
        data[ro + p * lo.point_stride] = src[ro + p * lo.point_stride];
      }
    }
  }
}

template void stockham_multirow<float>(cx<float>*, cx<float>*,
                                       const MultirowLayout&,
                                       const TwiddleTable<float>&);
template void stockham_multirow<double>(cx<double>*, cx<double>*,
                                        const MultirowLayout&,
                                        const TwiddleTable<double>&);
template void stockham_multirow<float>(cx<float>*, cx<float>*,
                                       const MultirowLayout&,
                                       const TwiddleTable<float>&,
                                       std::span<const StageSpec>);
template void stockham_multirow<double>(cx<double>*, cx<double>*,
                                        const MultirowLayout&,
                                        const TwiddleTable<double>&,
                                        std::span<const StageSpec>);

}  // namespace repro::fft
