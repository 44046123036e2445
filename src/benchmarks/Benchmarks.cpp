//===- Benchmarks.cpp - the 12 paper benchmarks (Table 4) ----------------===//

#include "benchmarks/Benchmarks.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <malloc.h>
#include <unistd.h>

using namespace ltp;

namespace {

//===----------------------------------------------------------------------===//
// Temporal-reuse kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeMatmul(int64_t N) {
  BenchmarkInstance I;
  I.Name = "matmul";
  InputBuffer AIn = I.declare<float>("A", {N, N}, 1);
  InputBuffer BIn = I.declare<float>("B", {N, N}, 2);

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, Iv) = 0.0f;
  C(J, Iv) += AIn(K, Iv) * BIn(J, K);
  I.addStage(C, {N, N});
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PB = In.data<float>("B");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = 0.0f;
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeGemm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemm";
  const float Alpha = 1.5f, Beta = 1.2f;
  InputBuffer AIn = I.declare<float>("A", {N, N}, 3);
  InputBuffer BIn = I.declare<float>("B", {N, N}, 4);
  InputBuffer CIn = I.declare<float>("Cin", {N, N}, 5);

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * BIn(J, K);
  I.addStage(C, {N, N});
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.Reference = [N, Alpha, Beta](const BenchmarkInstance &In,
                                 const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PB = In.data<float>("B"),
                *PC = In.data<float>("Cin");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance make3mm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "3mm";
  InputBuffer AIn = I.declare<float>("A", {N, N}, 6);
  InputBuffer BIn = I.declare<float>("B", {N, N}, 7);
  InputBuffer CmIn = I.declare<float>("Cm", {N, N}, 8);
  InputBuffer DIn = I.declare<float>("D", {N, N}, 9);

  Var J("j"), Iv("i");

  RDom K1(0, static_cast<int>(N), "k1");
  Func E("E");
  E(J, Iv) = 0.0f;
  E(J, Iv) += AIn(K1, Iv) * BIn(J, K1);
  InputBuffer EIn = I.addStage(E, {N, N});

  RDom K2(0, static_cast<int>(N), "k2");
  Func F("F");
  F(J, Iv) = 0.0f;
  F(J, Iv) += CmIn(K2, Iv) * DIn(J, K2);
  InputBuffer FIn = I.addStage(F, {N, N});

  RDom K3(0, static_cast<int>(N), "k3");
  Func G("G");
  G(J, Iv) = 0.0f;
  G(J, Iv) += EIn(K3, Iv) * FIn(J, K3);
  I.addStage(G, {N, N});
  I.Work = 6.0 * static_cast<double>(N) * N * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    std::vector<float> TE(static_cast<size_t>(N * N));
    std::vector<float> TF(static_cast<size_t>(N * N));
    const float *PA = In.data<float>("A"), *PB = In.data<float>("B"),
                *PC = In.data<float>("Cm"), *PD = In.data<float>("D");
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float AccE = 0.0f, AccF = 0.0f;
        for (int64_t K = 0; K != N; ++K) {
          AccE += PA[R * N + K] * PB[K * N + C2];
          AccF += PC[R * N + K] * PD[K * N + C2];
        }
        TE[static_cast<size_t>(R * N + C2)] = AccE;
        TF[static_cast<size_t>(R * N + C2)] = AccF;
      }
    float *PW = Want.data<float>();
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float Acc = 0.0f;
        for (int64_t K = 0; K != N; ++K)
          Acc += TE[static_cast<size_t>(R * N + K)] *
                 TF[static_cast<size_t>(K * N + C2)];
        PW[R * N + C2] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeTrmm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "trmm";
  const float Alpha = 1.1f;
  InputBuffer AIn = I.declare<float>("A", {N, N}, 10);
  InputBuffer BIn = I.declare<float>("B", {N, N}, 11);

  // Out-of-place triangular matmul: Bout = alpha * (A^T_lower * B + B),
  // with the strictly-lower-triangular part of A (k > i) contributing.
  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  K.where(Expr(K) > Expr(Iv));
  Func Bout("Bout");
  Bout(J, Iv) = Alpha * BIn(J, Iv);
  Bout(J, Iv) += Alpha * AIn(Iv, K) * BIn(J, K);
  I.addStage(Bout, {N, N});
  I.Work = static_cast<double>(N) * N * N; // ~half the cube, x2 flops
  I.Reference = [N, Alpha](const BenchmarkInstance &In,
                          const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PB = In.data<float>("B");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = PB[Row * N + Col];
        for (int64_t K2 = Row + 1; K2 < N; ++K2)
          Acc += PA[K2 * N + Row] * PB[K2 * N + Col];
        PE[Row * N + Col] = Alpha * Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyrk(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syrk";
  const float Alpha = 1.3f, Beta = 0.7f;
  InputBuffer AIn = I.declare<float>("A", {N, N}, 12);
  InputBuffer CIn = I.declare<float>("Cin", {N, N}, 13);

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * AIn(K, J);
  I.addStage(C, {N, N});
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.Reference = [N, Alpha, Beta](const BenchmarkInstance &In,
                                 const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PC = In.data<float>("Cin");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyr2k(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syr2k";
  const float Alpha = 0.8f, Beta = 1.4f;
  InputBuffer AIn = I.declare<float>("A", {N, N}, 14);
  InputBuffer BIn = I.declare<float>("B", {N, N}, 15);
  InputBuffer CIn = I.declare<float>("Cin", {N, N}, 16);

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) +=
      Alpha * AIn(K, Iv) * BIn(K, J) + Alpha * BIn(K, Iv) * AIn(K, J);
  I.addStage(C, {N, N});
  I.Work = 4.0 * static_cast<double>(N) * N * N;
  I.Reference = [N, Alpha, Beta](const BenchmarkInstance &In,
                                 const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PB = In.data<float>("B"),
                *PC = In.data<float>("Cin");
    float *PE = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[Col * N + K2] +
                 Alpha * PB[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeDoitgen(int64_t N) {
  BenchmarkInstance I;
  I.Name = "doitgen";
  // Out(p, q, r) = sum_s A(s, q, r) * C4(p, s).
  InputBuffer AIn = I.declare<float>("A", {N, N, N}, 17);
  InputBuffer C4In = I.declare<float>("C4", {N, N}, 18);

  Var P("p"), Q("q"), R("r");
  RDom S(0, static_cast<int>(N), "s");
  Func Out("Out");
  Out(P, Q, R) = 0.0f;
  Out(P, Q, R) += AIn(S, Q, R) * C4In(P, S);
  I.addStage(Out, {N, N, N});
  I.Work = 2.0 * static_cast<double>(N) * N * N * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *PA = In.data<float>("A"), *PC = In.data<float>("C4");
    float *PE = Want.data<float>();
    for (int64_t R2 = 0; R2 != N; ++R2)
      for (int64_t Q2 = 0; Q2 != N; ++Q2)
        for (int64_t P2 = 0; P2 != N; ++P2) {
          float Acc = 0.0f;
          for (int64_t S2 = 0; S2 != N; ++S2)
            Acc += PA[(R2 * N + Q2) * N + S2] * PC[S2 * N + P2];
          PE[(R2 * N + Q2) * N + P2] = Acc;
        }
  };
  return I;
}

BenchmarkInstance makeConvLayer(int64_t Size) {
  BenchmarkInstance I;
  I.Name = "convlayer";
  // out(x, y, k, b) = sum_{rx, ry, c} in(x+rx, y+ry, c, b) * w(rx, ry, c, k)
  const int64_t W = Size, H = Size;
  const int64_t Ch = std::min<int64_t>(64, std::max<int64_t>(8, Size / 4));
  const int64_t K = Ch;
  const int64_t B = std::max<int64_t>(1, Size / 64);
  InputBuffer InB = I.declare<float>("In", {W + 2, H + 2, Ch, B}, 19);
  InputBuffer WgtB = I.declare<float>("Wgt", {3, 3, Ch, K}, 20);

  Var X("x"), Y("y"), Kv("ko"), Bv("b");
  RDom R(std::vector<RVar>{RVar("rx", 0, 3), RVar("ry", 0, 3),
                           RVar("rc", 0, static_cast<int>(Ch))});
  Func Out("Out");
  Out(X, Y, Kv, Bv) = 0.0f;
  Out(X, Y, Kv, Bv) += InB(Expr(X) + Expr(R[0]), Expr(Y) + Expr(R[1]),
                           R[2], Bv) *
                       WgtB(R[0], R[1], R[2], Kv);
  I.addStage(Out, {W, H, K, B});
  I.Work = 2.0 * 9.0 * static_cast<double>(Ch) * W * H * K * B;
  I.Reference = [W, H, Ch, K, B](const BenchmarkInstance &In,
                                 const BufferRef &Want) {
    const float *PI = In.data<float>("In"), *PW = In.data<float>("Wgt");
    float *PE = Want.data<float>();
    int64_t IW = W + 2, IH = H + 2;
    for (int64_t B2 = 0; B2 != B; ++B2)
      for (int64_t K2 = 0; K2 != K; ++K2)
        for (int64_t Y2 = 0; Y2 != H; ++Y2)
          for (int64_t X2 = 0; X2 != W; ++X2) {
            float Acc = 0.0f;
            for (int64_t C2 = 0; C2 != Ch; ++C2)
              for (int64_t RY = 0; RY != 3; ++RY)
                for (int64_t RX = 0; RX != 3; ++RX)
                  Acc += PI[((B2 * Ch + C2) * IH + (Y2 + RY)) * IW +
                            (X2 + RX)] *
                         PW[((K2 * Ch + C2) * 3 + RY) * 3 + RX];
            PE[((B2 * K + K2) * H + Y2) * W + X2] = Acc;
          }
  };
  return I;
}

//===----------------------------------------------------------------------===//
// Spatial-reuse and streaming kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeTranspose(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tp";
  InputBuffer AIn = I.declare<uint32_t>("A", {N, N}, 21);

  Var X("x"), Y("y");
  Func Out("Out");
  Out(X, Y) = AIn(Y, X);
  I.addStage(Out, {N, N});
  I.Work = static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const uint32_t *PA = In.data<uint32_t>("A");
    uint32_t *PE = Want.data<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2];
  };
  return I;
}

BenchmarkInstance makeTpm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tpm";
  InputBuffer AIn = I.declare<uint32_t>("A", {N, N}, 22);
  InputBuffer BIn = I.declare<uint32_t>("B", {N, N}, 23);

  // Listing 2: out[y][x] = A[x][y] & B[y][x].
  Var X("x"), Y("y");
  Func Out("Out");
  Out(X, Y) = AIn(Y, X) & BIn(X, Y);
  I.addStage(Out, {N, N});
  I.Work = static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const uint32_t *PA = In.data<uint32_t>("A"), *PB = In.data<uint32_t>("B");
    uint32_t *PE = Want.data<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2] & PB[Y2 * N + X2];
  };
  return I;
}

BenchmarkInstance makeCopy(int64_t N) {
  BenchmarkInstance I;
  I.Name = "copy";
  InputBuffer AIn = I.declare<uint32_t>("A", {N, N}, 24);

  Var X("x"), Y("y");
  Func Out("Out");
  Out(X, Y) = AIn(X, Y);
  I.addStage(Out, {N, N});
  I.Work = static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const uint32_t *PA = In.data<uint32_t>("A");
    uint32_t *PE = Want.data<uint32_t>();
    std::copy(PA, PA + N * N, PE);
  };
  return I;
}

BenchmarkInstance makeMask(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mask";
  InputBuffer AIn = I.declare<uint32_t>("A", {N, N}, 25);
  InputBuffer BIn = I.declare<uint32_t>("B", {N, N}, 26);

  Var X("x"), Y("y");
  Func Out("Out");
  Out(X, Y) = AIn(X, Y) & BIn(X, Y);
  I.addStage(Out, {N, N});
  I.Work = static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const uint32_t *PA = In.data<uint32_t>("A"), *PB = In.data<uint32_t>("B");
    uint32_t *PE = Want.data<uint32_t>();
    for (int64_t Idx = 0; Idx != N * N; ++Idx)
      PE[Idx] = PA[Idx] & PB[Idx];
  };
  return I;
}

} // namespace

const std::vector<BenchmarkDef> &ltp::allBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"convlayer", "3x3xCxC convolution layer", 96, 256, makeConvLayer},
      {"doitgen", "multiresolution analysis kernel", 128, 256, makeDoitgen},
      {"matmul", "matrix multiplication", 1024, 2048, makeMatmul},
      {"3mm", "three chained matrix multiplications", 768, 2048, make3mm},
      {"gemm", "generalized matrix multiplication", 1024, 2048, makeGemm},
      {"trmm", "triangular matrix multiplication (out-of-place)", 1024,
       2048, makeTrmm},
      {"syrk", "symmetric rank-k update", 1024, 2048, makeSyrk},
      {"syr2k", "symmetric rank-2k update", 768, 2048, makeSyr2k},
      {"tpm", "matrix transposition and masking", 2048, 4096, makeTpm},
      {"tp", "matrix transposition", 2048, 4096, makeTranspose},
      {"copy", "array copy", 2048, 4096, makeCopy},
      {"mask", "array mask", 2048, 4096, makeMask},
  };
  return Defs;
}

const BenchmarkDef *ltp::findBenchmark(const std::string &Name) {
  for (const BenchmarkDef &Def : allBenchmarks())
    if (Def.Name == Name)
      return &Def;
  for (const BenchmarkDef &Def : extendedBenchmarks())
    if (Def.Name == Name)
      return &Def;
  return nullptr;
}

namespace {

/// Allocates zeroed storage for the declaration \p Ref, fills it from
/// \p Seed unless that is 0, and points Ref.Data at it.
std::shared_ptr<void> bindStorage(BufferRef &Ref, uint32_t Seed) {
  assert(!Ref.Data && "buffer is already materialized");
  auto Bind = [&](auto Owned) -> std::shared_ptr<void> {
    if (Seed != 0)
      Owned->fillRandom(Seed);
    Ref.Data = Owned->data();
    return Owned;
  };
  if (Ref.ElemType == ir::Type::float32())
    return Bind(std::make_shared<Buffer<float>>(Ref.Extents));
  assert(Ref.ElemType == ir::Type::uint32() &&
         "unsupported benchmark element type");
  return Bind(std::make_shared<Buffer<uint32_t>>(Ref.Extents));
}

int64_t physicalMemoryBytes() {
  long Pages = ::sysconf(_SC_PHYS_PAGES), PageBytes = ::sysconf(_SC_PAGESIZE);
  if (Pages <= 0 || PageBytes <= 0)
    return std::numeric_limits<int64_t>::max();
  return saturatingMul(Pages, PageBytes);
}

} // namespace

InputBuffer BenchmarkInstance::declare(const std::string &Name,
                                       ir::Type ElemType,
                                       std::vector<int64_t> Extents,
                                       uint32_t Seed) {
  const int Rank = static_cast<int>(Extents.size());
  Buffers[Name] = BufferRef::declare(ElemType, std::move(Extents));
  FillSeeds.emplace_back(Name, Seed);
  return InputBuffer(Name, ElemType, Rank);
}

InputBuffer BenchmarkInstance::addStage(Func F,
                                        std::vector<int64_t> Extents) {
  InputBuffer Output = declare(F.name(), F.type(), Extents, 0);
  OutputName = F.name();
  Stages.push_back(std::move(F));
  StageExtents.push_back(std::move(Extents));
  return Output;
}

ErrorOr<BenchmarkInstance> ltp::materialize(BenchmarkInstance Shape) {
  // Pin glibc's mmap threshold at its default so large buffers are always
  // mapped and return their pages when freed; with the dynamic threshold
  // freed buffers stay resident in the heap and peak RSS follows
  // allocation order rather than the live footprint.
  static const int PinnedMmapThreshold =
      mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)PinnedMmapThreshold;
  int64_t Footprint = 0;
  for (const auto &Entry : Shape.Buffers)
    if (__builtin_add_overflow(Footprint, Entry.second.sizeBytes(),
                               &Footprint))
      Footprint = std::numeric_limits<int64_t>::max();
  const int64_t Physical = physicalMemoryBytes();
  if (Footprint > Physical)
    return ErrorOr<BenchmarkInstance>::makeError(strFormat(
        "kernel '%s' needs %lld bytes of buffers, more than the %lld bytes "
        "of physical memory",
        Shape.Name.c_str(), static_cast<long long>(Footprint),
        static_cast<long long>(Physical)));
  for (const auto &[Name, Seed] : Shape.FillSeeds)
    Shape.Storage.push_back(bindStorage(Shape.Buffers.at(Name), Seed));
  return Shape;
}

BenchmarkInstance BenchmarkDef::Create(int64_t N) const {
  ErrorOr<BenchmarkInstance> Instance = materialize(shape(N));
  if (!Instance) {
    std::fprintf(stderr, "fatal: %s\n", Instance.getError().c_str());
    assert(false && "benchmark instance does not fit in memory");
  }
  return std::move(*Instance);
}

bool ltp::verifyOutput(const BenchmarkInstance &Instance) {
  assert(Instance.Reference && "benchmark lacks a reference oracle");
  auto It = Instance.Buffers.find(Instance.OutputName);
  assert(It != Instance.Buffers.end() && "output buffer missing");
  const BufferRef &Out = It->second;
  assert(Out.Data && "verifying an instance that was never materialized");
  BufferRef Want = Out;
  Want.Data = nullptr;
  std::shared_ptr<void> WantStorage = bindStorage(Want, 0);
  Instance.Reference(Instance, Want);

  if (Out.ElemType == ir::Type::float32()) {
    const float *PO = Out.data<float>();
    const float *PW = Want.data<float>();
    for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx) {
      double Tolerance = 1e-3 * (1.0 + std::fabs(PW[Idx]));
      if (std::fabs(PO[Idx] - PW[Idx]) > Tolerance)
        return false;
    }
    return true;
  }
  const uint32_t *PO = Out.data<uint32_t>();
  const uint32_t *PW = Want.data<uint32_t>();
  for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx)
    if (PO[Idx] != PW[Idx])
      return false;
  return true;
}
