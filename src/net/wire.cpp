#include "rna/net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::net::wire {

namespace {

// Frame header: magic "RW" in the top half so a decoder can reject a raw
// chunk that was mistakenly routed through a compressed decode path.
constexpr std::uint32_t kMagic = 0x52570000u;
constexpr std::size_t kHeaderWords = 3;

inline float WordFromU32(std::uint32_t u) { return std::bit_cast<float>(u); }
inline std::uint32_t U32FromWord(float w) {
  return std::bit_cast<std::uint32_t>(w);
}

// Half-precision conversion with round-to-nearest-even. Values arrive
// pre-scaled onto [-65504, 65504], so overflow only happens via rounding at
// the very top of the range; it clamps back to the max finite half.
inline std::uint16_t HalfFromFloat(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  std::uint32_t mant = bits & 0x007fffffu;
  const int exp = static_cast<int>((bits >> 23) & 0xffu) - 127 + 15;
  if (exp >= 31) {
    return static_cast<std::uint16_t>(sign | 0x7bffu);
  }
  if (exp <= 0) {
    if (exp < -10) {
      return static_cast<std::uint16_t>(sign);
    }
    mant |= 0x00800000u;
    const int shift = 14 - exp;
    const std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t h = sign | half_mant;
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
      ++h;
    }
    return static_cast<std::uint16_t>(h);
  }
  std::uint32_t h =
      sign | (static_cast<std::uint32_t>(exp) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) {
    ++h;
  }
  if ((h & 0x7fffu) >= 0x7c00u) {
    h = sign | 0x7bffu;
  }
  return static_cast<std::uint16_t>(h);
}

inline float FloatFromHalf(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {
      int e = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++e;
      }
      mant &= 0x3ffu;
      bits = sign | (static_cast<std::uint32_t>(113 - e) << 23) | (mant << 13);
    }
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(bits);
}

// v[i] = src[i] + residual[i] (residual optional).
inline float ValueAt(std::span<const float> src, std::span<const float> res,
                     std::size_t i) {
  return res.empty() ? src[i] : src[i] + res[i];
}

}  // namespace

const char* FormatName(Format f) {
  switch (f) {
    case Format::kRaw:
      return "raw";
    case Format::kFp16:
      return "fp16";
    case Format::kInt8:
      return "int8";
    case Format::kTopK:
      return "topk";
  }
  return "unknown";
}

std::size_t EncodedWords(Format f, std::size_t n, std::size_t k,
                         std::size_t exact_tail) {
  RNA_CHECK_MSG(exact_tail <= n, "wire: exact tail larger than chunk");
  const std::size_t nq = n - exact_tail;
  switch (f) {
    case Format::kRaw:
      return n;
    case Format::kFp16:
      return kHeaderWords + (nq + 1) / 2 + exact_tail;
    case Format::kInt8:
      return kHeaderWords + (nq + 3) / 4 + exact_tail;
    case Format::kTopK:
      RNA_CHECK_MSG(k <= nq, "wire: top-k keep count larger than chunk");
      return kHeaderWords + 2 * k + exact_tail;
  }
  return n;
}

std::size_t TopKCount(std::size_t n, double fraction) {
  if (n == 0) {
    return 0;
  }
  const double want = std::ceil(fraction * static_cast<double>(n));
  const auto k = static_cast<std::size_t>(std::max(1.0, want));
  return std::min(k, n);
}

std::vector<float> Encode(BufferPool& pool, Format f,
                          std::span<const float> src,
                          std::span<float> residual, std::size_t k,
                          std::size_t exact_tail) {
  const std::size_t n = src.size();
  RNA_CHECK_MSG(exact_tail <= n, "wire: exact tail larger than chunk");
  RNA_CHECK_MSG(residual.empty() || residual.size() == n,
                "wire: residual size mismatch");
  const std::size_t nq = n - exact_tail;

  if (f == Format::kRaw) {
    std::vector<float> payload = pool.Acquire(n);
    std::copy(src.begin(), src.end(), payload.begin());
    return payload;
  }

  std::vector<float> payload = pool.Acquire(EncodedWords(f, n, k, exact_tail));
  payload[1] = WordFromU32(static_cast<std::uint32_t>(n));

  switch (f) {
    case Format::kFp16: {
      payload[0] = WordFromU32(kMagic | static_cast<std::uint32_t>(f));
      float m = 0.0f;
      for (std::size_t i = 0; i < nq; ++i) {
        const float a = std::fabs(ValueAt(src, residual, i));
        if (a > m) {
          m = a;
        }
      }
      const float scale = m / 65504.0f;
      const float inv = m > 0.0f ? 65504.0f / m : 0.0f;
      payload[2] = scale;
      for (std::size_t i = 0; i < nq; i += 2) {
        const float v0 = ValueAt(src, residual, i);
        const std::uint16_t h0 = HalfFromFloat(v0 * inv);
        std::uint32_t word = h0;
        if (i + 1 < nq) {
          const float v1 = ValueAt(src, residual, i + 1);
          const std::uint16_t h1 = HalfFromFloat(v1 * inv);
          word |= static_cast<std::uint32_t>(h1) << 16;
          if (!residual.empty()) {
            residual[i + 1] = v1 - FloatFromHalf(h1) * scale;
          }
        }
        payload[kHeaderWords + i / 2] = WordFromU32(word);
        if (!residual.empty()) {
          residual[i] = v0 - FloatFromHalf(h0) * scale;
        }
      }
      break;
    }
    case Format::kInt8: {
      payload[0] = WordFromU32(kMagic | static_cast<std::uint32_t>(f));
      float m = 0.0f;
      for (std::size_t i = 0; i < nq; ++i) {
        const float a = std::fabs(ValueAt(src, residual, i));
        if (a > m) {
          m = a;
        }
      }
      const float scale = m / 127.0f;
      const float inv = m > 0.0f ? 127.0f / m : 0.0f;
      payload[2] = scale;
      for (std::size_t i = 0; i < nq; i += 4) {
        std::uint32_t word = 0;
        for (std::size_t j = 0; j < 4 && i + j < nq; ++j) {
          const float v = ValueAt(src, residual, i + j);
          long q = std::lround(static_cast<double>(v) * inv);
          q = std::clamp<long>(q, -127, 127);
          word |= (static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                      static_cast<std::int8_t>(q))))
                  << (8 * j);
          if (!residual.empty()) {
            residual[i + j] = v - static_cast<float>(q) * scale;
          }
        }
        payload[kHeaderWords + i / 4] = WordFromU32(word);
      }
      break;
    }
    case Format::kTopK: {
      payload[0] = WordFromU32(kMagic | static_cast<std::uint32_t>(f));
      RNA_CHECK_MSG(k <= nq && (nq == 0 || k > 0),
                    "wire: top-k keep count out of range");
      payload[2] = WordFromU32(static_cast<std::uint32_t>(k));
      float threshold = 0.0f;
      if (k > 0 && k < nq) {
        std::vector<float> scratch = pool.Acquire(nq);
        for (std::size_t i = 0; i < nq; ++i) {
          scratch[i] = std::fabs(ValueAt(src, residual, i));
        }
        std::nth_element(scratch.begin(),
                         scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         scratch.end(), std::greater<float>());
        threshold = scratch[k - 1];
        pool.Recycle(std::move(scratch));
      }
      // Strictly-greater values are always kept; ties at the threshold are
      // kept lowest-index-first until k slots are filled. Deterministic on
      // every rank because the walk order is the element order.
      std::size_t greater = 0;
      for (std::size_t i = 0; i < nq; ++i) {
        if (std::fabs(ValueAt(src, residual, i)) > threshold) {
          ++greater;
        }
      }
      std::size_t equals_allowed = (k >= nq) ? nq : k - greater;
      std::size_t out = 0;
      for (std::size_t i = 0; i < nq; ++i) {
        const float v = ValueAt(src, residual, i);
        const float a = std::fabs(v);
        bool take = false;
        if (out < k) {
          if (k >= nq || a > threshold) {
            take = true;
          } else if (a == threshold && equals_allowed > 0) {
            take = true;
            --equals_allowed;
          }
        }
        if (take) {
          payload[kHeaderWords + out] =
              WordFromU32(static_cast<std::uint32_t>(i));
          payload[kHeaderWords + k + out] = v;
          if (!residual.empty()) {
            residual[i] = 0.0f;
          }
          ++out;
        } else if (!residual.empty()) {
          residual[i] = v;
        }
      }
      RNA_CHECK_MSG(out == k, "wire: top-k selection under-filled");
      break;
    }
    case Format::kRaw:
      break;
  }

  // The exact tail rides verbatim and leaves no residual behind.
  for (std::size_t i = 0; i < exact_tail; ++i) {
    payload[payload.size() - exact_tail + i] = src[nq + i];
    if (!residual.empty()) {
      residual[nq + i] = 0.0f;
    }
  }
  return payload;
}

bool Decode(Format f, std::span<const float> payload, std::span<float> dst,
            Fold fold, std::size_t exact_tail) {
  const std::size_t n = dst.size();
  RNA_CHECK_MSG(exact_tail <= n, "wire: exact tail larger than chunk");
  const std::size_t nq = n - exact_tail;

  if (f == Format::kRaw) {
    if (payload.size() != n) return false;
    if (fold == Fold::kAdd) {
      common::simd::AddInto(dst, payload);
    } else {
      std::copy(payload.begin(), payload.end(), dst.begin());
    }
    return true;
  }

  // Validate the whole frame before touching dst: a peer's bytes are
  // untrusted, and a rejected frame must leave the chunk as it was.
  if (payload.size() < kHeaderWords) return false;
  const std::uint32_t hdr = U32FromWord(payload[0]);
  if ((hdr & 0xffff0000u) != kMagic ||
      static_cast<Format>(hdr & 0xffu) != f ||
      U32FromWord(payload[1]) != static_cast<std::uint32_t>(n)) {
    return false;
  }
  const std::size_t k =
      f == Format::kTopK ? std::size_t{U32FromWord(payload[2])} : 0;
  if (k > nq || payload.size() != EncodedWords(f, n, k, exact_tail)) {
    return false;
  }
  for (std::size_t s = 0; s < k; ++s) {
    if (U32FromWord(payload[kHeaderWords + s]) >= nq) return false;
  }

  switch (f) {
    case Format::kFp16: {
      const float scale = payload[2];
      for (std::size_t i = 0; i < nq; i += 2) {
        const std::uint32_t word = U32FromWord(payload[kHeaderWords + i / 2]);
        const float v0 =
            FloatFromHalf(static_cast<std::uint16_t>(word & 0xffffu)) * scale;
        if (fold == Fold::kAdd) {
          dst[i] += v0;
        } else {
          dst[i] = v0;
        }
        if (i + 1 < nq) {
          const float v1 =
              FloatFromHalf(static_cast<std::uint16_t>(word >> 16)) * scale;
          if (fold == Fold::kAdd) {
            dst[i + 1] += v1;
          } else {
            dst[i + 1] = v1;
          }
        }
      }
      break;
    }
    case Format::kInt8: {
      const float scale = payload[2];
      for (std::size_t i = 0; i < nq; i += 4) {
        const std::uint32_t word = U32FromWord(payload[kHeaderWords + i / 4]);
        for (std::size_t j = 0; j < 4 && i + j < nq; ++j) {
          const auto q = static_cast<std::int8_t>(
              static_cast<std::uint8_t>((word >> (8 * j)) & 0xffu));
          const float v = static_cast<float>(q) * scale;
          if (fold == Fold::kAdd) {
            dst[i + j] += v;
          } else {
            dst[i + j] = v;
          }
        }
      }
      break;
    }
    case Format::kTopK: {
      if (fold == Fold::kAssign) {
        std::fill(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(nq),
                  0.0f);
      }
      for (std::size_t s = 0; s < k; ++s) {
        const std::size_t idx = U32FromWord(payload[kHeaderWords + s]);
        const float v = payload[kHeaderWords + k + s];
        if (fold == Fold::kAdd) {
          dst[idx] += v;
        } else {
          dst[idx] = v;
        }
      }
      break;
    }
    case Format::kRaw:
      break;
  }

  for (std::size_t i = 0; i < exact_tail; ++i) {
    const float v = payload[payload.size() - exact_tail + i];
    if (fold == Fold::kAdd) {
      dst[nq + i] += v;
    } else {
      dst[nq + i] = v;
    }
  }
  return true;
}

}  // namespace rna::net::wire
