#pragma once

// Compression policy on the collective/fabric boundary. The collectives
// choose *what* to compress (one policy per pass, applied chunk by chunk);
// rna/net/wire.hpp owns *how* each format frames bytes. kNone routes
// through wire::Format::kRaw and is bitwise identical to the historical
// dense path; the lossy policies trade gradient fidelity for wire bytes,
// with kTopK relying on per-worker error-feedback residuals (this header's
// ErrorFeedback) to stay convergent.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "rna/net/wire.hpp"

namespace rna::collectives {

enum class Compression {
  kNone = 0,  ///< dense fp32 payloads, today's byte stream
  kFp16 = 1,  ///< half-precision quantization, per-chunk scale (2× smaller)
  kInt8 = 2,  ///< 8-bit quantization, per-chunk scale (4× smaller)
  kTopK = 3,  ///< top-k sparsification + error feedback (k = fraction · n)
};

/// Canonical lowercase name ("none", "fp16", "int8", "topk").
const char* CompressionName(Compression c);

/// Inverse of CompressionName; std::nullopt for unknown names.
std::optional<Compression> ParseCompression(std::string_view name);

/// The wire format a policy encodes with.
net::wire::Format ToWireFormat(Compression c);

/// Per-worker error-feedback residual memory: the part of this worker's
/// gradient the last encode could not represent, folded into the next
/// round's values before encoding (v = g + residual). One instance per
/// communicating thread, sized to the transported buffer; the collectives
/// slice it per chunk so each element's residual is read and written by
/// exactly one encode per pass. EnsureSize is the only allocating call —
/// engines size it once before the hot loop and steady state is
/// allocation-free.
class ErrorFeedback {
 public:
  /// Grows/shrinks to `n` elements. Growth zero-fills the new suffix and
  /// keeps existing residuals; shrinking re-zeros everything (stale
  /// residuals from a different buffer layout must never leak in).
  void EnsureSize(std::size_t n);

  std::size_t Size() const { return residual_.size(); }

  std::span<float> All() { return residual_; }
  std::span<float> Slice(std::size_t offset, std::size_t n);

 private:
  std::vector<float> residual_;
};

}  // namespace rna::collectives
