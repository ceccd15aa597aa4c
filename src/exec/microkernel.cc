#include "exec/microkernel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/microkernel_tiles.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MOPT_X86_TILE 1
#include <immintrin.h>
#endif

// Fully unroll a loop over the register block's points, so its
// accumulators stay in registers.
#if defined(__clang__)
#define MOPT_UNROLL_POINTS _Pragma("unroll")
#else
#define MOPT_UNROLL_POINTS _Pragma("GCC unroll 6")
#endif

namespace mopt {

namespace {

constexpr int VL = MicroKernelShape::kVecLen;
constexpr int KU = MicroKernelShape::kKU;
constexpr int WU = MicroKernelShape::kWU;
static_assert(KU == 2 * VL, "a register block is two vectors wide");

#if defined(MOPT_X86_TILE)

/**
 * The outer-product scheme of Fig. 4 for a WB-point block: 2 * WB
 * accumulators stay in registers for the whole (c, r, s) reduction;
 * each step loads 16 weight lanes and broadcasts one input per point.
 */
template <int WB>
__attribute__((target("avx2,fma"))) void
avx2TileW(const RegisterTile &t)
{
    const std::int64_t in_w = t.in_w, in_s = t.in_s, ker_s = t.ker_s;
    __m256 lo[WB], hi[WB];
MOPT_UNROLL_POINTS
    for (int i = 0; i < WB; ++i) {
        lo[i] = _mm256_setzero_ps();
        hi[i] = _mm256_setzero_ps();
    }
    for (std::int64_t c = 0; c < t.nc; ++c) {
        for (std::int64_t r = 0; r < t.nr; ++r) {
            const float *ip = t.in + c * t.in_c + r * t.in_r;
            const float *kp = t.ker + c * t.ker_c + r * t.ker_r;
            for (std::int64_t s = 0; s < t.ns;
                 ++s, ip += in_s, kp += ker_s) {
                const __m256 k_lo = _mm256_loadu_ps(kp);
                const __m256 k_hi = _mm256_loadu_ps(kp + VL);
MOPT_UNROLL_POINTS
                for (int i = 0; i < WB; ++i) {
                    const __m256 iv = _mm256_broadcast_ss(ip + i * in_w);
                    lo[i] = _mm256_fmadd_ps(iv, k_lo, lo[i]);
                    hi[i] = _mm256_fmadd_ps(iv, k_hi, hi[i]);
                }
            }
        }
    }
    // A full block into K-contiguous output is two vector
    // read-modify-writes per point. A partial block, or NKHW output
    // (computeRegisterTile), goes lane by lane.
    const bool full = t.kb == KU && t.out_k == 1;
MOPT_UNROLL_POINTS
    for (int i = 0; i < WB; ++i) {
        float *o = t.out + i * t.out_w;
        if (full) {
            _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), lo[i]));
            _mm256_storeu_ps(o + VL, _mm256_add_ps(_mm256_loadu_ps(o + VL),
                                                   hi[i]));
            continue;
        }
        alignas(32) float lanes[KU];
        _mm256_store_ps(lanes, lo[i]);
        _mm256_store_ps(lanes + VL, hi[i]);
        for (int ki = 0; ki < t.kb; ++ki)
            o[ki * t.out_k] += lanes[ki];
    }
}

__attribute__((target("avx2,fma"))) void
avx2TileAnyW(const RegisterTile &t)
{
    switch (t.wb) {
    case 1: avx2TileW<1>(t); break;
    case 2: avx2TileW<2>(t); break;
    case 3: avx2TileW<3>(t); break;
    case 4: avx2TileW<4>(t); break;
    case 5: avx2TileW<5>(t); break;
    default: avx2TileW<WU>(t); break;
    }
}

/**
 * The depthwise tile: the same 2 * WB accumulators, but each lane is
 * its own group, so every step loads the points' 16 input lanes
 * instead of broadcasting one.
 */
template <int WB>
__attribute__((target("avx2,fma"))) void
avx2DepthwiseTileW(const RegisterTile &t)
{
    const std::int64_t in_w = t.in_w, in_s = t.in_s, ker_s = t.ker_s;
    __m256 lo[WB], hi[WB];
MOPT_UNROLL_POINTS
    for (int i = 0; i < WB; ++i) {
        lo[i] = _mm256_setzero_ps();
        hi[i] = _mm256_setzero_ps();
    }
    for (std::int64_t r = 0; r < t.nr; ++r) {
        const float *ip = t.in + r * t.in_r;
        const float *kp = t.ker + r * t.ker_r;
        for (std::int64_t s = 0; s < t.ns; ++s, ip += in_s, kp += ker_s) {
            const __m256 k_lo = _mm256_loadu_ps(kp);
            const __m256 k_hi = _mm256_loadu_ps(kp + VL);
MOPT_UNROLL_POINTS
            for (int i = 0; i < WB; ++i) {
                lo[i] = _mm256_fmadd_ps(_mm256_loadu_ps(ip + i * in_w),
                                        k_lo, lo[i]);
                hi[i] = _mm256_fmadd_ps(
                    _mm256_loadu_ps(ip + i * in_w + VL), k_hi, hi[i]);
            }
        }
    }
MOPT_UNROLL_POINTS
    for (int i = 0; i < WB; ++i) {
        float *o = t.out + i * t.out_w;
        _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), lo[i]));
        _mm256_storeu_ps(o + VL,
                         _mm256_add_ps(_mm256_loadu_ps(o + VL), hi[i]));
    }
}

__attribute__((target("avx2,fma"))) void
avx2DepthwiseTileAnyW(const RegisterTile &t)
{
    switch (t.wb) {
    case 1: avx2DepthwiseTileW<1>(t); break;
    case 2: avx2DepthwiseTileW<2>(t); break;
    case 3: avx2DepthwiseTileW<3>(t); break;
    case 4: avx2DepthwiseTileW<4>(t); break;
    case 5: avx2DepthwiseTileW<5>(t); break;
    default: avx2DepthwiseTileW<WU>(t); break;
    }
}

#endif // MOPT_X86_TILE

/** Whether this process runs the AVX2+FMA tiles; decided once. */
bool
hostHasAvx2Fma()
{
#if defined(MOPT_X86_TILE)
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    }();
    return has;
#else
    return false;
#endif
}

} // namespace

void
portableTile(const RegisterTile &t)
{
    float acc[WU][KU] = {};
    for (std::int64_t c = 0; c < t.nc; ++c) {
        for (std::int64_t r = 0; r < t.nr; ++r) {
            const float *ip = t.in + c * t.in_c + r * t.in_r;
            const float *kp = t.ker + c * t.ker_c + r * t.ker_r;
            for (std::int64_t s = 0; s < t.ns;
                 ++s, ip += t.in_s, kp += t.ker_s) {
                for (int wi = 0; wi < t.wb; ++wi) {
                    const float iv = ip[wi * t.in_w];
                    for (int ki = 0; ki < KU; ++ki)
                        acc[wi][ki] += iv * kp[ki];
                }
            }
        }
    }
    for (int wi = 0; wi < t.wb; ++wi)
        for (int ki = 0; ki < t.kb; ++ki)
            t.out[wi * t.out_w + ki * t.out_k] += acc[wi][ki];
}

void
portableDepthwiseTile(const RegisterTile &t)
{
    float acc[WU][KU] = {};
    for (std::int64_t r = 0; r < t.nr; ++r) {
        const float *ip = t.in + r * t.in_r;
        const float *kp = t.ker + r * t.ker_r;
        for (std::int64_t s = 0; s < t.ns; ++s, ip += t.in_s, kp += t.ker_s)
            for (int wi = 0; wi < t.wb; ++wi)
                for (int gi = 0; gi < KU; ++gi)
                    acc[wi][gi] += ip[wi * t.in_w + gi] * kp[gi];
    }
    for (int wi = 0; wi < t.wb; ++wi)
        for (int gi = 0; gi < KU; ++gi)
            t.out[wi * t.out_w + gi] += acc[wi][gi];
}

TileFn
avx2Tile()
{
#if defined(MOPT_X86_TILE)
    if (hostHasAvx2Fma())
        return avx2TileAnyW;
#endif
    return nullptr;
}

TileFn
avx2DepthwiseTile()
{
#if defined(MOPT_X86_TILE)
    if (hostHasAvx2Fma())
        return avx2DepthwiseTileAnyW;
#endif
    return nullptr;
}

TileFn
hostTile()
{
    return hostHasAvx2Fma() ? avx2Tile() : portableTile;
}

TileFn
hostDepthwiseTile()
{
    return hostHasAvx2Fma() ? avx2DepthwiseTile() : portableDepthwiseTile;
}

DepthwiseTiler::DepthwiseTiler(const ConvProblem &p, const float *in,
                               const PackedKernel &pk, float *out)
    : in_(in), out_(out), pk_(pk), n_(p.n), in_h_(p.inH()),
      in_w_(p.inW()), h_(p.h), w_(p.w), stride_(p.stride),
      dil_(p.dilation), tile_(hostDepthwiseTile()), base_()
{
    base_.in_w = stride_ * kKU;
    base_.in_r = dil_ * in_w_ * kKU;
    base_.in_s = dil_ * kKU;
    base_.ker_s = pk.rowStride();
    base_.ker_r = pk.kernelW() * base_.ker_s;
    base_.out_w = kKU;
}

RegisterTiler::RegisterTiler(const ConvProblem &p, const Tensor4 &in,
                             const PackedKernel &pk, std::int64_t out_w,
                             std::int64_t out_k)
    : in_(in), pk_(pk), stride_(p.stride), dil_(p.dilation),
      tile_(hostTile()), base_()
{
    base_.in_w = stride_;
    base_.in_c = in.dim(2) * in.dim(3);
    base_.in_r = dil_ * in.dim(3);
    base_.in_s = dil_;
    base_.ker_s = pk.rowStride();
    base_.ker_r = pk.kernelW() * base_.ker_s;
    base_.ker_c = pk.kernelH() * base_.ker_r;
    base_.out_w = out_w;
    base_.out_k = out_k;
}

void
computeRegisterTile(const ConvProblem &p, const Tensor4 &in,
                    const PackedKernel &pk, Tensor4 &out, std::int64_t n,
                    std::int64_t h, std::int64_t w0, std::int64_t wb,
                    std::int64_t k0, std::int64_t kb, std::int64_t c0,
                    std::int64_t c1, std::int64_t r0, std::int64_t r1,
                    std::int64_t s0, std::int64_t s1, std::int64_t c_off)
{
    // One branch, so the hot path builds no message string.
    if (pk.vecLen() != VL || k0 < 0 || k0 + kb > pk.numOutChannels())
        panic("computeRegisterTile: packed kernel vector length or "
              "channel block out of range");
    const RegisterTiler tiler(p, in, pk, 1, out.dim(2) * out.dim(3));
    tiler(n, h, w0, wb, k0, kb, c0, c1, r0, r1, s0, s1, c_off,
          out.data() + out.offset(n, k0, h, w0));
}

const char *
kernelIsa()
{
    return hostTile() == portableTile ? "portable" : "avx2+fma";
}

} // namespace mopt
