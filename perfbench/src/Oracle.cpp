//===- Oracle.cpp - output checks of the kernels workload -----------------===//
//
// The native references of Benchmarks.cpp are O(N^3) or worse; at the
// paper's sizes matmul's alone takes over a minute on a 4-vCPU host, so
// the cubic kernels are checked at seeded sample points instead: each
// sampled element is recomputed with the reference loop (same float
// accumulation order) and compared with verifyOutput's tolerance. Every
// stage of a pipeline is checked against its own inputs. The O(N^2)
// kernels go through verifyOutput itself.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <cmath>
#include <functional>

using namespace perfbench;
using ltp::BenchmarkInstance;

namespace {

const float *floats(const BenchmarkInstance &I, const char *Name) {
  return static_cast<const float *>(I.Buffers.at(Name).Data);
}

int64_t extent(const BenchmarkInstance &I, const char *Name, int Dim) {
  return I.Buffers.at(Name).Extents.at(static_cast<size_t>(Dim));
}

/// verifyOutput's float tolerance.
bool close(float Got, float Want) {
  return std::fabs(Got - Want) <= 1e-3 * (1.0 + std::fabs(Want));
}

/// Compares \p Samples seeded (row, col) points of the N x N output
/// \p Out against \p Want(row, col).
std::string checkMatrix(const BenchmarkInstance &I, const char *Out, Rng &Gen,
                        int Samples,
                        const std::function<float(int64_t, int64_t)> &Want) {
  const int64_t N = extent(I, Out, 0);
  const float *PO = floats(I, Out);
  std::uniform_int_distribution<int64_t> Pick(0, N - 1);
  for (int S = 0; S != Samples; ++S) {
    int64_t Row = Pick(Gen), Col = Pick(Gen);
    float W = Want(Row, Col), G = PO[Row * N + Col];
    if (!close(G, W))
      return ltp::strFormat("%s %s(%lld, %lld) = %g, want %g", I.Name.c_str(),
                            Out, static_cast<long long>(Col),
                            static_cast<long long>(Row), G, W);
  }
  return "";
}

/// Row-major product element: sum_k L[row][k] * R[k][col].
float dot(const float *L, const float *R, int64_t N, int64_t Row,
          int64_t Col) {
  float Acc = 0.0f;
  for (int64_t K = 0; K != N; ++K)
    Acc += L[Row * N + K] * R[K * N + Col];
  return Acc;
}

std::string checkMatmulLike(const BenchmarkInstance &I, const char *A,
                            const char *B, const char *Out, Rng &Gen,
                            int Samples) {
  const float *PA = floats(I, A), *PB = floats(I, B);
  const int64_t N = extent(I, Out, 0);
  return checkMatrix(I, Out, Gen, Samples, [&](int64_t R, int64_t C) {
    return dot(PA, PB, N, R, C);
  });
}

} // namespace

std::string perfbench::checkOutputs(const BenchmarkInstance &I, Rng &Gen,
                                    int Samples) {
  const std::string &K = I.Name;
  if (K == "tp" || K == "tpm" || K == "copy" || K == "mask")
    return ltp::verifyOutput(I) ? "" : K + " output differs from reference";

  if (K == "matmul")
    return checkMatmulLike(I, "A", "B", "C", Gen, Samples);
  if (K == "3mm") {
    std::string Diag = checkMatmulLike(I, "A", "B", "E", Gen, Samples);
    if (Diag.empty())
      Diag = checkMatmulLike(I, "Cm", "D", "F", Gen, Samples);
    if (Diag.empty())
      Diag = checkMatmulLike(I, "E", "F", "G", Gen, Samples);
    return Diag;
  }

  const int64_t N = extent(I, I.OutputName.c_str(), 0);
  if (K == "gemm") {
    const float *PA = floats(I, "A"), *PB = floats(I, "B"),
                *PC = floats(I, "Cin");
    const float Alpha = 1.5f, Beta = 1.2f;
    return checkMatrix(I, "C", Gen, Samples, [&](int64_t R, int64_t C) {
      float Acc = Beta * PC[R * N + C];
      for (int64_t K2 = 0; K2 != N; ++K2)
        Acc += Alpha * PA[R * N + K2] * PB[K2 * N + C];
      return Acc;
    });
  }
  if (K == "trmm") {
    const float *PA = floats(I, "A"), *PB = floats(I, "B");
    const float Alpha = 1.1f;
    return checkMatrix(I, "Bout", Gen, Samples, [&](int64_t R, int64_t C) {
      float Acc = PB[R * N + C];
      for (int64_t K2 = R + 1; K2 < N; ++K2)
        Acc += PA[K2 * N + R] * PB[K2 * N + C];
      return Alpha * Acc;
    });
  }
  if (K == "syrk") {
    const float *PA = floats(I, "A"), *PC = floats(I, "Cin");
    const float Alpha = 1.3f, Beta = 0.7f;
    return checkMatrix(I, "C", Gen, Samples, [&](int64_t R, int64_t C) {
      float Acc = Beta * PC[R * N + C];
      for (int64_t K2 = 0; K2 != N; ++K2)
        Acc += Alpha * PA[R * N + K2] * PA[C * N + K2];
      return Acc;
    });
  }
  if (K == "syr2k") {
    const float *PA = floats(I, "A"), *PB = floats(I, "B"),
                *PC = floats(I, "Cin");
    const float Alpha = 0.8f, Beta = 1.4f;
    return checkMatrix(I, "C", Gen, Samples, [&](int64_t R, int64_t C) {
      float Acc = Beta * PC[R * N + C];
      for (int64_t K2 = 0; K2 != N; ++K2)
        Acc += Alpha * PA[R * N + K2] * PB[C * N + K2] +
               Alpha * PB[R * N + K2] * PA[C * N + K2];
      return Acc;
    });
  }
  if (K == "doitgen") {
    // Out(p, q, r) = sum_s A(s, q, r) * C4(p, s); (row, col) = (r*N+q, p).
    const float *PA = floats(I, "A"), *PC = floats(I, "C4");
    const float *PO = floats(I, "Out");
    std::uniform_int_distribution<int64_t> Pick(0, N - 1);
    for (int S = 0; S != Samples; ++S) {
      int64_t P = Pick(Gen), Q = Pick(Gen), R = Pick(Gen);
      float Acc = 0.0f;
      for (int64_t S2 = 0; S2 != N; ++S2)
        Acc += PA[(R * N + Q) * N + S2] * PC[S2 * N + P];
      float Got = PO[(R * N + Q) * N + P];
      if (!close(Got, Acc))
        return ltp::strFormat("doitgen Out(%lld, %lld, %lld) = %g, want %g",
                              static_cast<long long>(P),
                              static_cast<long long>(Q),
                              static_cast<long long>(R), Got, Acc);
    }
    return "";
  }
  if (K == "convlayer") {
    const int64_t W = extent(I, "Out", 0), H = extent(I, "Out", 1),
                  Kc = extent(I, "Out", 2), B = extent(I, "Out", 3),
                  Ch = extent(I, "In", 2);
    const int64_t IW = W + 2, IH = H + 2;
    const float *PI = floats(I, "In"), *PW = floats(I, "Wgt");
    const float *PO = floats(I, "Out");
    for (int S = 0; S != Samples; ++S) {
      int64_t X = std::uniform_int_distribution<int64_t>(0, W - 1)(Gen);
      int64_t Y = std::uniform_int_distribution<int64_t>(0, H - 1)(Gen);
      int64_t Ko = std::uniform_int_distribution<int64_t>(0, Kc - 1)(Gen);
      int64_t Bi = std::uniform_int_distribution<int64_t>(0, B - 1)(Gen);
      float Acc = 0.0f;
      for (int64_t C2 = 0; C2 != Ch; ++C2)
        for (int64_t RY = 0; RY != 3; ++RY)
          for (int64_t RX = 0; RX != 3; ++RX)
            Acc += PI[((Bi * Ch + C2) * IH + (Y + RY)) * IW + (X + RX)] *
                   PW[((Ko * Ch + C2) * 3 + RY) * 3 + RX];
      float Got = PO[((Bi * Kc + Ko) * H + Y) * W + X];
      if (!close(Got, Acc))
        return ltp::strFormat("convlayer Out(%lld, %lld, %lld, %lld) = %g, "
                              "want %g",
                              static_cast<long long>(X),
                              static_cast<long long>(Y),
                              static_cast<long long>(Ko),
                              static_cast<long long>(Bi), Got, Acc);
    }
    return "";
  }
  return "no output check for kernel " + K;
}
