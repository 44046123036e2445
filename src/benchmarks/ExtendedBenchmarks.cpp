//===- ExtendedBenchmarks.cpp - kernels beyond the paper's suite ----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// PolyBench kernels not in the paper's Table 4 plus a Jacobi stencil,
// used to exercise parts of the flow the original 12 do not reach:
//
//   atax      y = A^T (A x): two 1-D reductions, one over a transposed
//             view — temporal class with no parallelizable pure loop.
//   bicg      s = r A, q = A p: the same two orientations side by side.
//   mvt       x1 += A^T y1, x2 += A y2: independent 1-D stages.
//   gemver    A-hat = A + u1 v1^T + u2 v2^T, then two matrix-vector
//             products — a 4-stage pipeline mixing NoTransform and
//             temporal stages.
//   jacobi2d  5-point stencil: same index variables with constant
//             offsets, the pattern Figure 2 routes to NoTransform per
//             Kamil et al. [9].
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"

using namespace ltp;

namespace {

BenchmarkInstance makeAtax(int64_t N) {
  BenchmarkInstance I;
  I.Name = "atax";
  // tmp = A x;  y = A^T tmp.  A(j, i) stores row i contiguously in j.
  InputBuffer AIn = I.declare<float>("A", {N, N}, 31);
  InputBuffer XIn = I.declare<float>("x", {N}, 32);

  Var Iv("i"), Jv("j");

  RDom J(0, static_cast<int>(N), "jr");
  Func Tmp("tmp");
  Tmp(Iv) = 0.0f;
  Tmp(Iv) += AIn(J, Iv) * XIn(J);
  InputBuffer TmpIn = I.addStage(Tmp, {N});

  RDom Ir(0, static_cast<int>(N), "ir");
  Func Y("y");
  Y(Jv) = 0.0f;
  Y(Jv) += AIn(Jv, Ir) * TmpIn(Ir);
  I.addStage(Y, {N});
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PX = In.data<float>("x");
    float *PE = Want.data<float>();
    std::vector<float> Tmp(static_cast<size_t>(N), 0.0f);
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[R * N + C] * PX[C];
      Tmp[static_cast<size_t>(R)] = Acc;
    }
    for (int64_t C = 0; C != N; ++C) {
      float Acc = 0.0f;
      for (int64_t R = 0; R != N; ++R)
        Acc += PA[R * N + C] * Tmp[static_cast<size_t>(R)];
      PE[C] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeBicg(int64_t N) {
  BenchmarkInstance I;
  I.Name = "bicg";
  // s = r A (column sums), q = A p (row sums); output is q, s is a second
  // realized stage whose correctness the q oracle implies only partially,
  // so the oracle checks q and the s stage feeds nothing.
  InputBuffer AIn = I.declare<float>("A", {N, N}, 41);
  InputBuffer RIn = I.declare<float>("r", {N}, 42);
  InputBuffer PIn = I.declare<float>("p", {N}, 43);

  Var Iv("i"), Jv("j");

  RDom Ir(0, static_cast<int>(N), "ir");
  Func S("s");
  S(Jv) = 0.0f;
  S(Jv) += RIn(Ir) * AIn(Jv, Ir);
  I.addStage(S, {N});

  RDom Jr(0, static_cast<int>(N), "jr");
  Func Q("q");
  Q(Iv) = 0.0f;
  Q(Iv) += AIn(Jr, Iv) * PIn(Jr);
  I.addStage(Q, {N});
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PP = In.data<float>("p");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PP[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeMvt(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mvt";
  InputBuffer AIn = I.declare<float>("A", {N, N}, 51);
  InputBuffer Y1In = I.declare<float>("y1", {N}, 52);
  InputBuffer X1 = I.declare<float>("x1in", {N}, 54);

  // x1 = x1in + A y1.
  Var Iv("i");
  RDom J(0, static_cast<int>(N), "jr");
  Func Out("x1");
  Out(Iv) = X1(Iv);
  Out(Iv) += AIn(J, Iv) * Y1In(J);
  I.addStage(Out, {N});
  I.Work = 2.0 * static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PY = In.data<float>("y1"),
                *PX = In.data<float>("x1in");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = PX[Row];
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PY[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeGemver(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemver";
  const float Alpha = 1.2f, Beta = 1.1f;
  InputBuffer AIn = I.declare<float>("A", {N, N}, 61);
  InputBuffer U1In = I.declare<float>("u1", {N}, 62);
  InputBuffer V1In = I.declare<float>("v1", {N}, 63);
  InputBuffer U2In = I.declare<float>("u2", {N}, 64);
  InputBuffer V2In = I.declare<float>("v2", {N}, 65);
  InputBuffer YIn = I.declare<float>("y", {N}, 66);
  InputBuffer ZIn = I.declare<float>("z", {N}, 67);

  Var Iv("i"), Jv("j");

  // Stage 1: rank-2 update; same index variables on both sides, no
  // transposition -> NoTransform (+NTI candidate).
  Func Ah("Ah");
  Ah(Jv, Iv) = AIn(Jv, Iv) + U1In(Iv) * V1In(Jv) + U2In(Iv) * V2In(Jv);
  InputBuffer AhIn = I.addStage(Ah, {N, N});

  // Stage 2: x = beta * Ah^T y + z.
  RDom Jr(0, static_cast<int>(N), "jr2");
  Func X("x");
  X(Iv) = ZIn(Iv);
  X(Iv) += Beta * AhIn(Iv, Jr) * YIn(Jr);
  InputBuffer XIn = I.addStage(X, {N});

  // Stage 3: w = alpha * Ah x.
  RDom Jr3(0, static_cast<int>(N), "jr3");
  Func W("w");
  W(Iv) = 0.0f;
  W(Iv) += Alpha * AhIn(Jr3, Iv) * XIn(Jr3);
  I.addStage(W, {N});
  I.Work = 2.0 * static_cast<double>(N) * N * 3.0;
  I.Reference = [N, Alpha, Beta](const BenchmarkInstance &In,
                                 const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *U1 = In.data<float>("u1"),
                *V1 = In.data<float>("v1"), *U2 = In.data<float>("u2"),
                *V2 = In.data<float>("v2"), *Y = In.data<float>("y"),
                *Z = In.data<float>("z");
    std::vector<float> AH(static_cast<size_t>(N * N));
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C = 0; C != N; ++C)
        AH[static_cast<size_t>(R * N + C)] =
            PA[R * N + C] + U1[R] * V1[C] + U2[R] * V2[C];
    std::vector<float> XV(static_cast<size_t>(N));
    for (int64_t C = 0; C != N; ++C) {
      float Acc = Z[C];
      for (int64_t R = 0; R != N; ++R)
        Acc += Beta * AH[static_cast<size_t>(R * N + C)] * Y[R];
      XV[static_cast<size_t>(C)] = Acc;
    }
    float *PE = Want.data<float>();
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += Alpha * AH[static_cast<size_t>(R * N + C)] *
               XV[static_cast<size_t>(C)];
      PE[R] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeJacobi2d(int64_t N) {
  BenchmarkInstance I;
  I.Name = "jacobi2d";
  // One out-of-place 5-point sweep over a padded grid.
  InputBuffer InB = I.declare<float>("In", {N + 2, N + 2}, 71);

  Var X("x"), Y("y");
  Func Out("Out");
  Out(X, Y) = 0.2f * (InB(Expr(X) + 1, Expr(Y) + 1) +
                      InB(Expr(X), Expr(Y) + 1) +
                      InB(Expr(X) + 2, Expr(Y) + 1) +
                      InB(Expr(X) + 1, Expr(Y)) +
                      InB(Expr(X) + 1, Expr(Y) + 2));
  I.addStage(Out, {N, N});
  I.Work = 5.0 * static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PI = In.data<float>("In");
    float *PE = Want.data<float>();
    int64_t W = N + 2;
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] =
            0.2f * (PI[(Y2 + 1) * W + (X2 + 1)] + PI[(Y2 + 1) * W + X2] +
                    PI[(Y2 + 1) * W + (X2 + 2)] + PI[Y2 * W + (X2 + 1)] +
                    PI[(Y2 + 2) * W + (X2 + 1)]);
  };
  return I;
}

} // namespace

const std::vector<BenchmarkDef> &ltp::extendedBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"atax", "y = A^T (A x)", 1024, 4096, makeAtax},
      {"bicg", "s = r A; q = A p", 1024, 4096, makeBicg},
      {"mvt", "x1 = x1 + A y1", 1024, 4096, makeMvt},
      {"gemver", "rank-2 update + two matvecs", 1024, 4096, makeGemver},
      {"jacobi2d", "5-point Jacobi sweep (stencil)", 2048, 4096,
       makeJacobi2d},
  };
  return Defs;
}
