//===- Peak.cpp - Single-core f32 FMA peak -------------------------------===//
//
// The machine peak the gemm.pct_peak metric divides by: twelve independent
// FMA chains (enough to cover FMA latency on two ports) in the widest
// vector ISA the CPU reports, timed on one core.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <immintrin.h>

namespace perfbench {
namespace {

constexpr int Chains = 12;

__attribute__((target("avx512f"))) float fmaLoop512(int64_t Iters,
                                                     float Mul, float Add) {
  __m512 Acc[Chains];
#pragma GCC unroll 12
  for (int J = 0; J < Chains; ++J)
    Acc[J] = _mm512_set1_ps(float(J) * 0.01f);
  const __m512 A = _mm512_set1_ps(Mul), B = _mm512_set1_ps(Add);
  for (int64_t I = 0; I < Iters; ++I)
#pragma GCC unroll 12
    for (int J = 0; J < Chains; ++J)
      Acc[J] = _mm512_fmadd_ps(Acc[J], A, B);
  float Out[16];
  __m512 S = Acc[0];
#pragma GCC unroll 12
  for (int J = 1; J < Chains; ++J)
    S = _mm512_add_ps(S, Acc[J]);
  _mm512_storeu_ps(Out, S);
  return Out[0] + Out[15];
}

__attribute__((target("avx2,fma"))) float fmaLoop256(int64_t Iters,
                                                     float Mul, float Add) {
  __m256 Acc[Chains];
#pragma GCC unroll 12
  for (int J = 0; J < Chains; ++J)
    Acc[J] = _mm256_set1_ps(float(J) * 0.01f);
  const __m256 A = _mm256_set1_ps(Mul), B = _mm256_set1_ps(Add);
  for (int64_t I = 0; I < Iters; ++I)
#pragma GCC unroll 12
    for (int J = 0; J < Chains; ++J)
      Acc[J] = _mm256_fmadd_ps(Acc[J], A, B);
  float Out[8];
  __m256 S = Acc[0];
#pragma GCC unroll 12
  for (int J = 1; J < Chains; ++J)
    S = _mm256_add_ps(S, Acc[J]);
  _mm256_storeu_ps(Out, S);
  return Out[0] + Out[7];
}

float fmaLoopScalar(int64_t Iters, float Mul, float Add) {
  float Acc[Chains];
#pragma GCC unroll 12
  for (int J = 0; J < Chains; ++J)
    Acc[J] = float(J) * 0.01f;
  for (int64_t I = 0; I < Iters; ++I)
#pragma GCC unroll 12
    for (int J = 0; J < Chains; ++J)
      Acc[J] = Acc[J] * Mul + Add;
  float S = 0;
  for (float V : Acc)
    S += V;
  return S;
}

} // namespace

double measurePeakGflops(std::string &IsaOut) {
  float (*Loop)(int64_t, float, float) = fmaLoopScalar;
  int Lanes = 1;
  IsaOut = "scalar";
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    Loop = fmaLoop512;
    Lanes = 16;
    IsaOut = "avx512f";
  } else if (__builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma")) {
    Loop = fmaLoop256;
    Lanes = 8;
    IsaOut = "avx2+fma";
  }
  // Volatile operands keep the loop from being folded; the sink keeps the
  // result live.
  volatile float Mul = 0.9999f, Add = 1e-4f, Sink = 0;
  const int64_t Iters = 1 << 20;
  double Best = 0;
  for (int Rep = 0; Rep < 7; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    Sink = Sink + Loop(Iters, Mul, Add);
    const double Sec = msSince(T0) * 1e-3;
    const double Flops = double(Iters) * Chains * Lanes * 2;
    Best = std::max(Best, Flops / Sec * 1e-9);
  }
  return Best;
}

} // namespace perfbench
