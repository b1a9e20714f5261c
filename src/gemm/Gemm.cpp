//===- Gemm.cpp -----------------------------------------------------------===//

#include "gemm/Gemm.h"

#include "gemm/ThreadPool.h"
#include "obs/Obs.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace exo;
using namespace gemm;

GemmPlan GemmPlan::standard(KernelProvider &P) {
  MicroKernel K = P.main();
  GemmPlan Plan;
  Plan.Blocks =
      analyticalBlockSizes(CacheConfig::host(), K.MR, K.NR, sizeof(float));
  // Probe with the full-width shape, which main() has already built: a
  // narrower probe would build a kernel only a remainder strip can use.
  // The probe only picks the *preferred* mode; a provider whose edge family
  // turns out to be partial at run time degrades per-strip to the re-padded
  // scratch path inside the executor instead of failing (see executeGemm).
  Plan.PackMode = P.edge(K.MR, K.NR).has_value() ? EdgePack::Tight
                                                 : EdgePack::ZeroPad;
  return Plan;
}

detail::GemmGeometry detail::deriveGeometry(const GemmPlan &Plan,
                                            const MicroKernel &Main,
                                            int64_t M, int64_t N, int64_t K) {
  GemmGeometry G;
  G.Main = Main;
  G.PackMode = Plan.PackMode;
  G.Mr = Main.MR;
  G.Nr = Main.NR;
  // Clamp blocks to the problem so pack buffers stay proportionate.
  auto RoundUp = [](int64_t V, int64_t Q) { return ((V + Q - 1) / Q) * Q; };
  G.Mc = std::min(std::max<int64_t>(Plan.Blocks.MC, G.Mr), RoundUp(M, G.Mr));
  G.Kc =
      std::min(std::max<int64_t>(Plan.Blocks.KC, 1), std::max<int64_t>(K, 1));
  G.Nc = std::min(std::max<int64_t>(Plan.Blocks.NC, G.Nr), RoundUp(N, G.Nr));

  // Team size and its BLIS-style 2D factorization: loop 3 (ic blocks) is
  // the primary axis; when there are fewer ic blocks than threads, the
  // remainder parallelizes loop 4 (jr strips) within each ic team. Tic is
  // the largest divisor of T fitting the ic block count, so every thread
  // lands in the grid.
  G.NIc = (M + G.Mc - 1) / G.Mc;
  const int64_t NPanMax = (std::min(G.Nc, N) + G.Nr - 1) / G.Nr;
  G.T = std::max<int64_t>(
      1, std::min(resolveGemmThreads(Plan.Threads), G.NIc * NPanMax));
  factorizeTeam(G);
  return G;
}

void detail::factorizeTeam(GemmGeometry &G) {
  G.Tic = 1;
  for (int64_t D = 1; D <= G.T; ++D)
    if (G.T % D == 0 && D <= G.NIc)
      G.Tic = D;
  G.Tjr = G.T / G.Tic;
}

detail::GemmGeometry detail::reteamGeometry(const GemmGeometry &G,
                                            int64_t Width) {
  GemmGeometry G2 = G;
  G2.T = std::max<int64_t>(1, std::min(Width, G.T));
  factorizeTeam(G2);
  return G2;
}

void detail::resolveEdgeKernels(
    KernelProvider &Provider, GemmGeometry &G, int64_t N,
    std::vector<std::optional<MicroKernel>> &Storage) {
  // Resolve every strip kernel up front, on the calling thread: the worker
  // team must never call into the provider (whose kernel cache may invoke
  // the JIT), and a fixed kernel per width keeps one GEMM call bitwise
  // invariant under the thread count. A width whose specialized kernel is
  // unavailable (partial edge family, or a failed build) stays nullopt and
  // takes the re-padded scratch path.
  Storage.assign(static_cast<size_t>(G.Nr), std::nullopt);
  G.NeedBPad = false;
  if (G.PackMode == EdgePack::Tight) {
    std::vector<bool> Probed(G.Nr, false);
    for (int64_t Jc = 0; Jc < N; Jc += G.Nc) {
      int64_t W = std::min(G.Nc, N - Jc) % G.Nr;
      if (W == 0 || Probed[W])
        continue;
      Probed[W] = true;
      std::optional<MicroKernel> E = Provider.edge(G.Mr, W);
      if (E && E->Fn)
        Storage[W] = *E;
      else
        G.NeedBPad = true;
    }
  }
  G.EdgeKernels = Storage.data();
}

void detail::GemmWorkspace::ensure(const GemmGeometry &G) {
  // Shared packed-B block (written cooperatively, panel-interleaved, read
  // by everyone after the barrier) and per-thread working memory: A pack
  // buffer, scratch tile, and — only when a Tight-mode width lacks its
  // kernel — a re-padded B panel. Every resize is a no-op when the
  // workspace already fits this geometry (the Engine's pooled hot path).
  if (G.Ty == DType::I8I32) {
    // K-grouped byte panels and i32 scratch tiles; panel depth is the
    // group count rounded up (the pack zero-fills the K remainder).
    const int64_t KG = (G.Kc + I8KGroup - 1) / I8KGroup;
    BBufI8.resize(((G.Nc + G.Nr - 1) / G.Nr) * KG * I8KGroup * G.Nr);
    ABufsI8.resize(G.T);
    ScratchesI32.resize(G.T);
    for (int64_t I = 0; I < G.T; ++I) {
      ABufsI8[I].resize(((G.Mc + G.Mr - 1) / G.Mr) * KG * I8KGroup * G.Mr);
      ScratchesI32[I].resize(G.Mr * G.Nr);
    }
    return;
  }
  // F32 — and F16/BF16, whose panels are convert-packed to f32 with the
  // identical layout (the scratch tile doubles as the rounding staging
  // area at copy-out).
  BBuf.resize(((G.Nc + G.Nr - 1) / G.Nr) * G.Kc * G.Nr);
  ABufs.resize(G.T);
  Scratches.resize(G.T);
  BPads.resize(G.T);
  for (int64_t I = 0; I < G.T; ++I) {
    ABufs[I].resize(((G.Mc + G.Mr - 1) / G.Mr) * G.Kc * G.Mr);
    Scratches[I].resize(G.Mr * G.Nr);
    BPads[I].resize(G.NeedBPad ? G.Kc * G.Nr : 0);
  }
}

namespace {

/// Per-call context handed to the raw ThreadPool callback: pointers only,
/// so dispatching a team performs no allocation.
struct TeamJob {
  const detail::GemmGeometry *G;
  const detail::GemmCall *Call;
  detail::GemmWorkspace *WS;
  TeamBarrier *Bar;
};

/// Where element (r, c) of the logical op(X) block at (R0, C0) lives:
/// X[Off + r * RS + c * CS]. Transposition swaps the strides — which is how
/// packing absorbs it.
struct OpView {
  int64_t Off, RS, CS;
};
inline OpView opView(Trans T, int64_t Ld, int64_t R0, int64_t C0) {
  return T == Trans::None ? OpView{R0 + C0 * Ld, 1, Ld}
                          : OpView{C0 + R0 * Ld, Ld, 1};
}

//===----------------------------------------------------------------------===//
// Element policies
//
// Everything in the five-loop macro-kernel that depends on the dtype. A
// policy is constructed per team member over that member's slice of the
// workspace and provides:
//
//   betaIsOne(Cl)                      static; skip the pre-scale entirely
//   scaleColumn(Cl, Row, Col, Len)     static; C[Row.., Col] *= beta
//                                      (beta == 0 overwrites, NaN-safe)
//   packB(P, J0, W, Pc, KcEff)         pack B panel P (W columns at J0)
//   packA(Ic, Pc, McEff, KcEff)        pack this member's A block
//   strip(P, NrEff, KcEff)             select strip P's B panel (and kernel)
//   tile(Ir, Row, Col, MrEff, NrEff, KcEff)
//                                      one micro-tile update of C at
//                                      (Row, Col) from A panel Ir / Mr
//
// runTeamMember is instantiated once per policy, so no tile pays a
// per-dtype branch.
//===----------------------------------------------------------------------===//

/// F32: the kernels write C directly; edge strips dispatch their
/// specialized kernel or re-pad through the scratch tile.
struct F32Elem {
  const detail::GemmGeometry &G;
  const detail::GemmCall &Cl;
  // Per-tile scalars held by value, so they stay in registers across the
  // opaque kernel calls.
  const int64_t Mr, Nr, Ldc;
  float *const C;
  const KernelFn Main;
  float *const BBuf, *const ABuf, *const Scratch, *const BPad;
  // Current strip (set by strip()).
  const float *BPanel = nullptr;
  KernelFn StripFn = nullptr;
  bool Padded = false;

  F32Elem(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
          detail::GemmWorkspace &WS, int64_t Tid)
      : G(G), Cl(Cl), Mr(G.Mr), Nr(G.Nr), Ldc(Cl.Ldc),
        C(static_cast<float *>(Cl.C)), Main(G.Main.Fn),
        BBuf(WS.BBuf.data()), ABuf(WS.ABufs[Tid].data()),
        Scratch(WS.Scratches[Tid].data()),
        BPad(WS.BPads[Tid].empty() ? nullptr : WS.BPads[Tid].data()) {}

  static bool betaIsOne(const detail::GemmCall &Cl) {
    return Cl.Beta == 1.0f;
  }
  static void scaleColumn(const detail::GemmCall &Cl, int64_t Row,
                          int64_t Col, int64_t Len) {
    float *P = static_cast<float *>(Cl.C) + Row + Col * Cl.Ldc;
    if (Cl.Beta == 0.0f)
      std::fill(P, P + Len, 0.0f);
    else
      for (int64_t I = 0; I < Len; ++I)
        P[I] *= Cl.Beta;
  }

  void packB(int64_t P, int64_t J0, int64_t W, int64_t Pc, int64_t KcEff) {
    // Packing panel by panel reproduces the monolithic layout exactly (slot
    // stride KcEff * Nr; only the last panel can be partial).
    const OpView V = opView(Cl.TB, Cl.Ldb, Pc, J0);
    packBStrided(static_cast<const float *>(Cl.B) + V.Off, V.RS, V.CS, KcEff,
                 W, Nr, /*Alpha=*/1.0f, G.PackMode, BBuf + P * KcEff * Nr);
  }

  void packA(int64_t Ic, int64_t Pc, int64_t McEff, int64_t KcEff) {
    // A panels are always zero-padded to the full Mr: edge kernels keep the
    // full vector width along m and tile() masks the copy-out instead (rows
    // >= mr_eff contribute zeros).
    const OpView V = opView(Cl.TA, Cl.Lda, Ic, Pc);
    packAStrided(static_cast<const float *>(Cl.A) + V.Off, V.RS, V.CS, McEff,
                 KcEff, Mr, Cl.Alpha, EdgePack::ZeroPad, ABuf);
  }

  void strip(int64_t P, int64_t NrEff, int64_t KcEff) {
    BPanel = BBuf + P * KcEff * Nr;
    // The edge kernel depends only on the strip width; resolved once per
    // plan (or per legacy call). A Tight-mode strip without its specialized
    // kernel re-pads the tight panel and runs the monolithic kernel through
    // the scratch tile — a partial edge family degrades instead of failing.
    StripFn = Main;
    Padded = G.PackMode == EdgePack::ZeroPad;
    if (NrEff < Nr && G.PackMode == EdgePack::Tight) {
      if (G.EdgeKernels[NrEff]) {
        StripFn = G.EdgeKernels[NrEff]->Fn;
      } else {
        for (int64_t Kk = 0; Kk < KcEff; ++Kk) {
          float *Row = BPad + Kk * Nr;
          for (int64_t J = 0; J < NrEff; ++J)
            Row[J] = BPanel[Kk * NrEff + J];
          std::fill(Row + NrEff, Row + Nr, 0.0f);
        }
        BPanel = BPad;
        Padded = true;
      }
    }
  }

  void tile(int64_t Ir, int64_t Row, int64_t Col, int64_t MrEff,
            int64_t NrEff, int64_t KcEff) {
    const float *APanel = ABuf + (Ir / Mr) * KcEff * Mr;
    float *CTile = C + Row + Col * Ldc;
    if (MrEff == Mr && NrEff == Nr) {
      Main(KcEff, Ldc, APanel, BPanel, CTile);
      return;
    }
    if (!Padded && MrEff == Mr) {
      // Specialized kernel at full vector width along m and the exact
      // nr_eff along n (B panels are tight).
      StripFn(KcEff, Ldc, APanel, BPanel, CTile);
      return;
    }
    // Scratch tile: the kernel (specialized when the m edge is short,
    // monolithic on the padded path) computes into a zero-initialized
    // Mr x Nr tile — the A panel's padded rows are zero — and the valid
    // window is accumulated back.
    std::fill(Scratch, Scratch + Mr * Nr, 0.0f);
    (Padded ? Main : StripFn)(KcEff, Mr, APanel, BPanel, Scratch);
    for (int64_t J = 0; J < NrEff; ++J)
      for (int64_t I = 0; I < MrEff; ++I)
        CTile[I + J * Ldc] += Scratch[J * Mr + I];
  }
};

/// F16/BF16: the plan's f32 kernel over convert-packed f32 panels (the f32
/// panel layout, always zero-padded), into the scratch tile.
template <DType Ty> struct HalfElem {
  const detail::GemmCall &Cl;
  const int64_t Mr, Nr, Ldc;
  uint16_t *const C;
  const KernelFn Main;
  float *const BBuf, *const ABuf, *const Scratch;
  const float *BPanel = nullptr;

  HalfElem(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
           detail::GemmWorkspace &WS, int64_t Tid)
      : Cl(Cl), Mr(G.Mr), Nr(G.Nr), Ldc(Cl.Ldc),
        C(static_cast<uint16_t *>(Cl.C)), Main(G.Main.Fn),
        BBuf(WS.BBuf.data()), ABuf(WS.ABufs[Tid].data()),
        Scratch(WS.Scratches[Tid].data()) {}

  static float load(uint16_t H) {
    return Ty == DType::BF16 ? bf16ToF32(H) : f16ToF32(H);
  }
  static uint16_t store(float F) {
    return Ty == DType::BF16 ? f32ToBf16(F) : f32ToF16(F);
  }

  static bool betaIsOne(const detail::GemmCall &Cl) {
    return Cl.Beta == 1.0f;
  }
  static void scaleColumn(const detail::GemmCall &Cl, int64_t Row,
                          int64_t Col, int64_t Len) {
    uint16_t *P = static_cast<uint16_t *>(Cl.C) + Row + Col * Cl.Ldc;
    if (Cl.Beta == 0.0f)
      std::fill(P, P + Len, uint16_t(0));
    else
      for (int64_t I = 0; I < Len; ++I)
        P[I] = store(load(P[I]) * Cl.Beta);
  }

  void packB(int64_t P, int64_t J0, int64_t W, int64_t Pc, int64_t KcEff) {
    const OpView V = opView(Cl.TB, Cl.Ldb, Pc, J0);
    packBConvStrided(Ty, static_cast<const uint16_t *>(Cl.B) + V.Off, V.RS,
                     V.CS, KcEff, W, Nr, /*Alpha=*/1.0f,
                     BBuf + P * KcEff * Nr);
  }

  void packA(int64_t Ic, int64_t Pc, int64_t McEff, int64_t KcEff) {
    const OpView V = opView(Cl.TA, Cl.Lda, Ic, Pc);
    packAConvStrided(Ty, static_cast<const uint16_t *>(Cl.A) + V.Off, V.RS,
                     V.CS, McEff, KcEff, Mr, Cl.Alpha, ABuf);
  }

  void strip(int64_t P, int64_t, int64_t KcEff) {
    BPanel = BBuf + P * KcEff * Nr;
  }

  void tile(int64_t Ir, int64_t Row, int64_t Col, int64_t MrEff,
            int64_t NrEff, int64_t KcEff) {
    // Always the scratch tile: the f32 kernel computes the block's
    // contribution, and the C update (read storage, accumulate in f32,
    // round to storage) happens exactly once per Kc block — the documented
    // rounding contract.
    std::fill(Scratch, Scratch + Mr * Nr, 0.0f);
    Main(KcEff, Mr, ABuf + (Ir / Mr) * KcEff * Mr, BPanel, Scratch);
    uint16_t *CTile = C + Row + Col * Ldc;
    for (int64_t J = 0; J < NrEff; ++J)
      for (int64_t I = 0; I < MrEff; ++I) {
        uint16_t &H = CTile[I + J * Ldc];
        H = store(load(H) + Scratch[J * Mr + I]);
      }
  }
};

/// Wrapping i32 scale used by the i8 path's alpha/beta application.
inline int32_t mulWrapI32(int32_t V, int64_t S) {
  return int32_t(uint32_t(uint64_t(int64_t(V) * S)));
}

/// I8I32: K-grouped byte panels (packAI8Strided layout) and the scalar dot
/// — the portable stand-in for sdot/VNNI — into an i32 scratch tile.
/// Accumulation is two's-complement i32; the uint32_t detours keep the
/// wraparound defined.
struct I8Elem {
  const detail::GemmCall &Cl;
  const int64_t Mr, Nr, Ldc;
  int32_t *const C;
  int8_t *const BBuf, *const ABuf;
  int32_t *const Scratch;
  const int8_t *BPanel = nullptr;

  I8Elem(const detail::GemmGeometry &G, const detail::GemmCall &Cl,
         detail::GemmWorkspace &WS, int64_t Tid)
      : Cl(Cl), Mr(G.Mr), Nr(G.Nr), Ldc(Cl.Ldc),
        C(static_cast<int32_t *>(Cl.C)), BBuf(WS.BBufI8.data()),
        ABuf(WS.ABufsI8[Tid].data()), Scratch(WS.ScratchesI32[Tid].data()) {}

  /// Panel depth in elements: the group count rounded up (the pack
  /// zero-fills the K remainder).
  static int64_t depth(int64_t KcEff) {
    return (KcEff + I8KGroup - 1) / I8KGroup * I8KGroup;
  }

  static bool betaIsOne(const detail::GemmCall &Cl) { return Cl.BetaI == 1; }
  static void scaleColumn(const detail::GemmCall &Cl, int64_t Row,
                          int64_t Col, int64_t Len) {
    int32_t *P = static_cast<int32_t *>(Cl.C) + Row + Col * Cl.Ldc;
    if (Cl.BetaI == 0)
      std::fill(P, P + Len, 0);
    else
      for (int64_t I = 0; I < Len; ++I)
        P[I] = mulWrapI32(P[I], Cl.BetaI);
  }

  void packB(int64_t P, int64_t J0, int64_t W, int64_t Pc, int64_t KcEff) {
    const OpView V = opView(Cl.TB, Cl.Ldb, Pc, J0);
    packBI8Strided(static_cast<const int8_t *>(Cl.B) + V.Off, V.RS, V.CS,
                   KcEff, W, Nr, BBuf + P * depth(KcEff) * Nr);
  }

  void packA(int64_t Ic, int64_t Pc, int64_t McEff, int64_t KcEff) {
    const OpView V = opView(Cl.TA, Cl.Lda, Ic, Pc);
    packAI8Strided(static_cast<const int8_t *>(Cl.A) + V.Off, V.RS, V.CS,
                   McEff, KcEff, Mr, ABuf);
  }

  void strip(int64_t P, int64_t, int64_t KcEff) {
    BPanel = BBuf + P * depth(KcEff) * Nr;
  }

  void tile(int64_t Ir, int64_t Row, int64_t Col, int64_t MrEff,
            int64_t NrEff, int64_t KcEff) {
    const int64_t KGroups = depth(KcEff) / I8KGroup;
    const int8_t *APanel = ABuf + (Ir / Mr) * KGroups * I8KGroup * Mr;
    // Scratch[j*Mr + i] = sum over (g, kk) of Ac[g][i][kk] * Bc[g][j][kk].
    std::fill(Scratch, Scratch + Mr * Nr, 0);
    for (int64_t Gr = 0; Gr < KGroups; ++Gr) {
      const int8_t *Ag = APanel + Gr * Mr * I8KGroup;
      const int8_t *Bg = BPanel + Gr * Nr * I8KGroup;
      for (int64_t J = 0; J < Nr; ++J) {
        const int8_t *Bq = Bg + J * I8KGroup;
        for (int64_t I = 0; I < Mr; ++I) {
          const int8_t *Aq = Ag + I * I8KGroup;
          int32_t Dot = 0;
          for (int64_t Kk = 0; Kk < I8KGroup; ++Kk)
            Dot += int32_t(Aq[Kk]) * int32_t(Bq[Kk]);
          Scratch[J * Mr + I] =
              int32_t(uint32_t(Scratch[J * Mr + I]) + uint32_t(Dot));
        }
      }
    }
    int32_t *CTile = C + Row + Col * Ldc;
    for (int64_t J = 0; J < NrEff; ++J)
      for (int64_t I = 0; I < MrEff; ++I) {
        int32_t &V = CTile[I + J * Ldc];
        V = int32_t(uint32_t(V) +
                    uint32_t(mulWrapI32(Scratch[J * Mr + I], Cl.AlphaI)));
      }
  }
};

/// One team member's share of the five-loop macro-kernel (paper Fig. 1).
/// The team grid, barriers and C ownership are dtype-independent, which is
/// what makes every dtype bitwise invariant under the team size.
template <class Elem> void runTeamMember(void *Ctx, int64_t Tid) {
  const TeamJob &Job = *static_cast<TeamJob *>(Ctx);
  const detail::GemmGeometry &G = *Job.G;
  const detail::GemmCall &Cl = *Job.Call;
  const int64_t Mr = G.Mr, Nr = G.Nr, Mc = G.Mc, Kc = G.Kc, Nc = G.Nc;
  const int64_t NIc = G.NIc, T = G.T, Tic = G.Tic, Tjr = G.Tjr;
  const int64_t M = Cl.M, N = Cl.N, K = Cl.K;
  Elem E(G, Cl, *Job.WS, Tid);

  // Grid position: ic team owns row blocks BIdx % Tic == IcTeam; within
  // a team, jr strips (and pre-scale columns) split by JrIdx.
  const int64_t IcTeam = Tid / Tjr, JrIdx = Tid % Tjr;

  for (int64_t Jc = 0; Jc < N; Jc += Nc) {            // Loop L1
    const int64_t NcEff = std::min(Nc, N - Jc);
    const int64_t NPan = (NcEff + Nr - 1) / Nr;
    for (int64_t Pc = 0; Pc < K; Pc += Kc) {          // Loop L2
      const int64_t KcEff = std::min(Kc, K - Pc);
      // Cooperative packB: panel P goes to thread P % T.
      {
        EXO_OBS_SPAN("gemm.packB");
        for (int64_t P = Tid; P < NPan; P += T)
          E.packB(P, Jc + P * Nr, std::min(Nr, NcEff - P * Nr), Pc, KcEff);
      }

      // Apply beta once per (jc) column block, before the first update.
      // Ownership: rows by ic team, columns round-robin within the team —
      // every C element has exactly one writer.
      if (Pc == 0 && !Elem::betaIsOne(Cl)) {
        EXO_OBS_SPAN("gemm.beta");
        for (int64_t BIdx = IcTeam; BIdx < NIc; BIdx += Tic) {
          const int64_t Ic = BIdx * Mc;
          const int64_t McEff = std::min(Mc, M - Ic);
          for (int64_t J = JrIdx; J < NcEff; J += Tjr)
            Elem::scaleColumn(Cl, Ic, Jc + J, McEff);
        }
      }
      if (T > 1) {
        EXO_OBS_SPAN("gemm.barrier");
        Job.Bar->arriveAndWait(); // packB + pre-scale done before update
      }

      for (int64_t BIdx = IcTeam; BIdx < NIc; BIdx += Tic) { // Loop L3
        const int64_t Ic = BIdx * Mc;
        const int64_t McEff = std::min(Mc, M - Ic);
        // Each thread packs into its own buffer; members of the same ic
        // team duplicate the pack, trading redundant bandwidth for zero
        // intra-team synchronization.
        {
          EXO_OBS_SPAN("gemm.packA");
          E.packA(Ic, Pc, McEff, KcEff);
        }

        EXO_OBS_SPAN("gemm.ukr");
        for (int64_t P = JrIdx; P < NPan; P += Tjr) {  // Loop L4
          const int64_t Jr = P * Nr;
          const int64_t NrEff = std::min(Nr, NcEff - Jr);
          E.strip(P, NrEff, KcEff);
          for (int64_t Ir = 0; Ir < McEff; Ir += Mr)   // Loop L5
            E.tile(Ir, Ic + Ir, Jc + Jr, std::min(Mr, McEff - Ir), NrEff,
                   KcEff);
        }
      }
      if (T > 1) {
        EXO_OBS_SPAN("gemm.barrier");
        Job.Bar->arriveAndWait(); // BBuf (and C columns) recycle next round
      }
    }
  }
}

using TeamFn = void (*)(void *, int64_t);

TeamFn teamMemberFor(DType Ty) {
  switch (Ty) {
  case DType::F16:
    return &runTeamMember<HalfElem<DType::F16>>;
  case DType::BF16:
    return &runTeamMember<HalfElem<DType::BF16>>;
  case DType::I8I32:
    return &runTeamMember<I8Elem>;
  default:
    return &runTeamMember<F32Elem>;
  }
}

template <class Elem> void scaleAll(const detail::GemmCall &Cl) {
  for (int64_t J = 0; J < Cl.N; ++J)
    Elem::scaleColumn(Cl, 0, J, Cl.M);
}

} // namespace

void detail::scaleByBeta(DType Ty, int64_t M, int64_t N, double Beta, void *C,
                         int64_t Ldc) {
  // Beta == 0 must *overwrite*, not scale: 0 * NaN == NaN, and serving
  // workloads hand in pooled, uninitialized C buffers (the classic BLAS
  // beta-zero rule). The element policies' pre-scale implements exactly
  // that, so the degenerate path reuses it over the whole matrix.
  GemmCall Cl;
  Cl.M = M;
  Cl.N = N;
  Cl.C = C;
  Cl.Ldc = Ldc;
  Cl.Beta = static_cast<float>(Beta);
  switch (Ty) {
  case DType::F16:
    return scaleAll<HalfElem<DType::F16>>(Cl);
  case DType::BF16:
    return scaleAll<HalfElem<DType::BF16>>(Cl);
  case DType::I8I32:
    Cl.BetaI = static_cast<int64_t>(Beta);
    return scaleAll<I8Elem>(Cl);
  default:
    return scaleAll<F32Elem>(Cl);
  }
}

void detail::executeGemm(const GemmGeometry &G, const GemmCall &Call,
                         GemmWorkspace &WS) {
  // Tracing (see docs/OBSERVABILITY.md): spans attribute time to the
  // packA / packB / micro-kernel / barrier phases at block granularity —
  // coarse enough that an *enabled* trace stays cheap, and each Span
  // construction is a single relaxed load when EXO_OBS is unset. The
  // spans only observe; results are bitwise identical either way.
  EXO_OBS_SPAN("gemm.call");
  const TeamFn Member = teamMemberFor(G.Ty);
  // Nested call (this thread is already inside a pool job — e.g. a batched
  // cross-item worker, or a user callback issuing a GEMM): a T-member team
  // cannot form, and letting the pool degrade a T > 1 job inline would
  // deadlock on the TeamBarrier (each Tid would wait for teammates that
  // never run concurrently). Collapse to the single-member geometry
  // instead — results are bitwise identical for every team size by the
  // thread-count-invariance guarantee (see Gemm.h), so this only changes
  // scheduling, never output.
  if (G.T > 1 && ThreadPool::global().inParallel()) {
    GemmGeometry G1 = reteamGeometry(G, 1);
    TeamJob Job{&G1, &Call, &WS, nullptr}; // T == 1 never touches the barrier
    Member(&Job, 0);
    return;
  }
  TeamBarrier Bar(G.T);
  TeamJob Job{&G, &Call, &WS, &Bar};
  ThreadPool::global().parallel(G.T, Member, &Job);
}

void detail::executeGemmReserved(const GemmGeometry &G, const GemmCall &Call,
                                 GemmWorkspace &WS,
                                 ThreadPool::Reservation &Res) {
  EXO_OBS_SPAN("gemm.call");
  const TeamFn Member = teamMemberFor(G.Ty);
  // The granted team: the caller plus every reserved worker. Res.Count is
  // already <= G.T - 1 (the governor caps its ask at the plan width), so
  // the re-teamed copy fits the workspace ensured for G, and by the
  // thread-count-invariance guarantee the narrower team produces bitwise
  // the same C.
  const int64_t Width = 1 + Res.Count;
  if (Width >= G.T && G.T > 1) {
    // Full width granted: run the plan's own geometry directly.
    TeamBarrier Bar(G.T);
    TeamJob Job{&G, &Call, &WS, &Bar};
    ThreadPool::global().runTeam(Res, Member, &Job);
    return;
  }
  GemmGeometry G2 = reteamGeometry(G, Width);
  if (G2.T < Width) {
    // The shape offers less parallel work than the grant (tiny problem on
    // a wide plan): return the surplus workers before dispatching.
    ThreadPool::global().release(Res);
    if (G2.T <= 1) {
      TeamJob Job{&G2, &Call, &WS, nullptr};
      Member(&Job, 0);
      return;
    }
    TeamBarrier Bar(G2.T);
    TeamJob Job{&G2, &Call, &WS, &Bar};
    ThreadPool::global().parallel(G2.T, Member, &Job);
    return;
  }
  TeamBarrier Bar(G2.T);
  TeamJob Job{&G2, &Call, &WS, G2.T > 1 ? &Bar : nullptr};
  ThreadPool::global().runTeam(Res, Member, &Job);
}

Error gemm::blisGemm(const GemmPlan &Plan, KernelProvider &Provider,
                     int64_t M, int64_t N, int64_t K, float Alpha,
                     const float *A, int64_t Lda, const float *B,
                     int64_t Ldb, float Beta, float *C, int64_t Ldc) {
  return blisGemmT(Plan, Provider, Trans::None, Trans::None, M, N, K, Alpha,
                   A, Lda, B, Ldb, Beta, C, Ldc);
}

Error gemm::blisGemmT(const GemmPlan &Plan, KernelProvider &Provider,
                      Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                      float Alpha, const float *A, int64_t Lda,
                      const float *B, int64_t Ldb, float Beta, float *C,
                      int64_t Ldc) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemm: negative dimension");
  if (M == 0 || N == 0)
    return Error::success();

  // K == 0 and alpha == 0 both degenerate to a beta scaling: the update
  // term is empty (or scaled away), and per BLAS semantics A and B are
  // never read — callers may legally pass null.
  if (K == 0 || Alpha == 0.0f) {
    detail::scaleByBeta(DType::F32, M, N, Beta, C, Ldc);
    return Error::success();
  }

  MicroKernel Main = Provider.main();
  if (!Main.Fn)
    return errorf("gemm: provider '%s' has no runnable kernel",
                  Provider.name());

  detail::GemmGeometry G = detail::deriveGeometry(Plan, Main, M, N, K);
  std::vector<std::optional<MicroKernel>> Edges;
  detail::resolveEdgeKernels(Provider, G, N, Edges);
  detail::GemmWorkspace WS;
  WS.ensure(G);
  detail::executeGemm(
      G, detail::GemmCall{TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C,
                          Ldc},
      WS);
  return Error::success();
}
