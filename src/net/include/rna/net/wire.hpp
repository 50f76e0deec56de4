#pragma once

// Wire formats for collective payloads: how a chunk of floats is framed
// into a Message::data payload. kRaw is the historical format — the payload
// IS the chunk, bit for bit, with no header — and stays byte-identical to
// the pre-compression fabric. The quantized formats (kFp16, kInt8) and the
// kTopK sparsifier prepend a small self-describing header (format id,
// element count, per-chunk scale) inside the float payload itself, so a
// compressed message is still one pooled float buffer: no Message::meta
// growth, no extra allocation on the hot path.
//
// Frame layout (32-bit words inside Message::data):
//   kRaw : [ v0 v1 ... v(n-1) ]                    — no header
//   kFp16: [ hdr n scale | half-pairs... | tail ]  — 2 values per word
//   kInt8: [ hdr n scale | int8-quads... | tail ]  — 4 values per word
//   kTopK: [ hdr n k     | indices... values... | tail ]
// `hdr` carries a magic byte and the format id (bit-cast u32); `n` and `k`
// are bit-cast u32 counts; `scale` is a plain float. `tail` is the last
// `exact_tail` elements of the chunk carried verbatim (bit-exact) — the
// transport for exact side-channels like the partial-allreduce contributor
// count or Horovod's stop vote, which must survive lossy compression.
//
// Quantization is per chunk: scale = max|v| mapped onto the format's full
// range (65504 for fp16, 127 for int8), so every chunk uses its dynamic
// range fully. Encode can fold an error-feedback residual in (v = src +
// residual) and writes the new residual (v − decoded) back — the memory
// that makes top-k sparsification converge.
//
// Everything here is deterministic: same input bytes → same output bytes,
// on every rank, in every run. Collective agreement (all ranks ending
// bitwise identical) additionally relies on the caller forwarding encoded
// payloads verbatim during the all-gather instead of re-encoding.

#include <cstdint>
#include <span>
#include <vector>

#include "rna/net/buffer_pool.hpp"

namespace rna::net::wire {

enum class Format : std::uint8_t {
  kRaw = 0,
  kFp16 = 1,
  kInt8 = 2,
  kTopK = 3,
};

inline constexpr std::size_t kFormatCount = 4;

const char* FormatName(Format f);

/// How the decoded values are applied to the destination chunk.
enum class Fold {
  kAssign,  ///< dst = decoded (all-gather / broadcast-down)
  kAdd,     ///< dst += decoded (reduce fold); kRaw uses simd::AddInto so the
            ///< uncompressed path stays bitwise identical to the old ring
};

/// Payload words for a chunk of `n` elements (`k` kept values for kTopK,
/// ignored otherwise; `exact_tail` trailing elements carried verbatim).
std::size_t EncodedWords(Format f, std::size_t n, std::size_t k,
                         std::size_t exact_tail);

/// Number of kept values for kTopK over `n` quantized elements: at least
/// one (when n > 0), at most n, ceil(fraction · n) in between.
std::size_t TopKCount(std::size_t n, double fraction);

/// Encodes values v[i] = src[i] + residual[i] into a pool-acquired payload
/// (`residual` may be empty → v = src). When `residual` is non-empty it is
/// overwritten with the error feedback v − decode(encode(v)); the exact
/// tail always leaves a zero residual. `k` is the kTopK keep count
/// (TopKCount), ignored by the other formats. kRaw ignores the residual and
/// produces the chunk verbatim.
std::vector<float> Encode(BufferPool& pool, Format f,
                          std::span<const float> src,
                          std::span<float> residual, std::size_t k,
                          std::size_t exact_tail);

/// Decodes a payload produced by Encode into `dst`. kAssign overwrites —
/// for kTopK the unselected elements become zero; kAdd folds the decoded
/// values in (sparse add for kTopK). The payload is a peer's bytes, so the
/// whole frame is validated first: size, magic, format id, element count
/// (= dst.size()), and top-k keep count and indices. A malformed frame
/// returns false with `dst` untouched.
[[nodiscard]] bool Decode(Format f, std::span<const float> payload,
                          std::span<float> dst, Fold fold,
                          std::size_t exact_tail);

}  // namespace rna::net::wire
