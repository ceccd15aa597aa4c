/**
 * @file
 * Internals of the microkernel, shared by the executor and its tests
 * only: the register tile as raw pointers and strides, the dense and
 * depthwise tile implementations, and the tile splitters runConv (and,
 * for dense tiles, computeRegisterTile) call. The output is addressed
 * through strides, so one dense tile accumulates into NKHW output
 * (computeRegisterTile) as well as into runConv's K-contiguous
 * accumulator.
 */

#ifndef MOPT_EXEC_MICROKERNEL_TILES_HH
#define MOPT_EXEC_MICROKERNEL_TILES_HH

#include <algorithm>
#include <cstdint>

#include "exec/microkernel.hh"

namespace mopt {

/**
 * One register tile of at most kWU points x kKU channels:
 *
 *   out[wi * out_w + ki * out_k] +=
 *     sum over c < nc, r < nr, s < ns (in that order) of
 *       in[wi * in_w + c * in_c + r * in_r + s * in_s] *
 *       ker[ki + c * ker_c + r * ker_r + s * ker_s]
 *
 * for wi < wb, ki < kb. The kernel always reads kKU weight lanes per
 * (c, r, s) step, so ker[kKU - 1 + ...] must be readable; the packed
 * kernel's padding guarantees it.
 *
 * A depthwise tile reads the same struct with one difference: lane ki
 * is a group of its own, with one input channel, so the input is
 * lane-contiguous too and there is no c reduction:
 *
 *   out[wi * out_w + ki] +=
 *     sum over r < nr, s < ns (in that order) of
 *       in[wi * in_w + r * in_r + s * in_s + ki] *
 *       ker[ki + r * ker_r + s * ker_s]
 *
 * for wi < wb and all kKU lanes (in_c, ker_c, out_k, nc and kb are
 * not read).
 */
struct RegisterTile
{
    const float *in;
    std::int64_t in_w, in_c, in_r, in_s;
    const float *ker;
    std::int64_t ker_c, ker_r, ker_s;
    float *out;
    std::int64_t out_w, out_k;
    std::int64_t nc, nr, ns;
    int wb; //!< Output points, 1..kWU.
    int kb; //!< Output channels, 1..kKU.
};

using TileFn = void (*)(const RegisterTile &);

/** The portable C++ tile; runs on any host. */
void portableTile(const RegisterTile &t);

/** The portable C++ depthwise tile; runs on any host. */
void portableDepthwiseTile(const RegisterTile &t);

/** The AVX2+FMA tile, or nullptr when the build does not target x86
 *  or the host CPU lacks AVX2 or FMA. */
TileFn avx2Tile();

/** The AVX2+FMA depthwise tile, or nullptr exactly when avx2Tile()
 *  is. */
TileFn avx2DepthwiseTile();

/** The tile this process runs: avx2Tile() when available, else
 *  portableTile. The instruction set is chosen once per process. */
TileFn hostTile();

/** The depthwise tile of the same instruction set as hostTile(). */
TileFn hostDepthwiseTile();

/**
 * computeRegisterTile's contract with a strided output, with the
 * strides that stay fixed over a whole convolution worked out once.
 * For a call, @p out points at output element (w0, k0) of row
 * (n, h), and element (w0 + wi, k0 + ki) is
 * out[wi * out_w + ki * out_k]. Any wb and kb: the tile is split into
 * hostTile() calls of at most kWU x kKU.
 */
class RegisterTiler
{
  public:
    RegisterTiler(const ConvProblem &p, const Tensor4 &in,
                  const PackedKernel &pk, std::int64_t out_w,
                  std::int64_t out_k);

    void
    operator()(std::int64_t n, std::int64_t h, std::int64_t w0,
               std::int64_t wb, std::int64_t k0, std::int64_t kb,
               std::int64_t c0, std::int64_t c1, std::int64_t r0,
               std::int64_t r1, std::int64_t s0, std::int64_t s1,
               std::int64_t c_off, float *out) const
    {
        RegisterTile t = base_;
        t.nc = c1 - c0;
        t.nr = r1 - r0;
        t.ns = s1 - s0;
        const float *in_row =
            in_.data() + in_.offset(n, c_off + c0, h * stride_ + r0 * dil_,
                                    w0 * stride_ + s0 * dil_);
        const float *ker_row = pk_.row(c0, r0, s0) + k0;
        for (std::int64_t wi = 0; wi < wb; wi += kWU) {
            t.wb = static_cast<int>(std::min(kWU, wb - wi));
            t.in = in_row + wi * stride_;
            for (std::int64_t ki = 0; ki < kb; ki += kKU) {
                t.kb = static_cast<int>(std::min(kKU, kb - ki));
                t.ker = ker_row + ki;
                t.out = out + wi * t.out_w + ki * t.out_k;
                tile_(t);
            }
        }
    }

  private:
    static constexpr std::int64_t kWU = MicroKernelShape::kWU;
    static constexpr std::int64_t kKU = MicroKernelShape::kKU;

    const Tensor4 &in_;
    const PackedKernel &pk_;
    std::int64_t stride_, dil_;
    TileFn tile_;
    RegisterTile base_; //!< Strides; per-call fields are filled in.
};

/**
 * Depthwise convolution (one input and one output channel per group)
 * run kKU groups per vector. The input and the output are
 * group-blocked, [G/kKU][N][rows][cols][kKU], with lanes past G zero
 * in the input; the packed kernel's rows are already group-contiguous
 * because K = G, so group block gb's weights start at
 * pk.row(0, r, s) + gb * kKU. A call computes the register tile
 * (n, h, w0..w0+wb) of block gb over window rows [r0, r1) and columns
 * [s0, s1), split into hostDepthwiseTile() calls of at most kWU
 * points.
 */
class DepthwiseTiler
{
  public:
    DepthwiseTiler(const ConvProblem &p, const float *in,
                   const PackedKernel &pk, float *out);

    void
    operator()(std::int64_t gb, std::int64_t n, std::int64_t h,
               std::int64_t w0, std::int64_t wb, std::int64_t r0,
               std::int64_t r1, std::int64_t s0, std::int64_t s1) const
    {
        RegisterTile t = base_;
        t.nr = r1 - r0;
        t.ns = s1 - s0;
        t.ker = pk_.row(0, r0, s0) + gb * kKU;
        const float *in_row =
            in_ + (((gb * n_ + n) * in_h_ + h * stride_ + r0 * dil_) *
                       in_w_ +
                   w0 * stride_ + s0 * dil_) *
                      kKU;
        float *out_row = out_ + (((gb * n_ + n) * h_ + h) * w_ + w0) * kKU;
        for (std::int64_t wi = 0; wi < wb; wi += kWU) {
            t.wb = static_cast<int>(std::min(kWU, wb - wi));
            t.in = in_row + wi * t.in_w;
            t.out = out_row + wi * kKU;
            tile_(t);
        }
    }

  private:
    static constexpr std::int64_t kWU = MicroKernelShape::kWU;
    static constexpr std::int64_t kKU = MicroKernelShape::kKU;

    const float *in_;
    float *out_;
    const PackedKernel &pk_;
    std::int64_t n_, in_h_, in_w_, h_, w_, stride_, dil_;
    TileFn tile_;
    RegisterTile base_; //!< Strides; per-call fields are filled in.
};

} // namespace mopt

#endif // MOPT_EXEC_MICROKERNEL_TILES_HH
