#include "rna/collectives/compression.hpp"

#include "rna/common/check.hpp"

namespace rna::collectives {

const char* CompressionName(Compression c) {
  switch (c) {
    case Compression::kNone:
      return "none";
    case Compression::kFp16:
      return "fp16";
    case Compression::kInt8:
      return "int8";
    case Compression::kTopK:
      return "topk";
  }
  return "unknown";
}

std::optional<Compression> ParseCompression(std::string_view name) {
  if (name == "none") return Compression::kNone;
  if (name == "fp16") return Compression::kFp16;
  if (name == "int8") return Compression::kInt8;
  if (name == "topk") return Compression::kTopK;
  return std::nullopt;
}

net::wire::Format ToWireFormat(Compression c) {
  switch (c) {
    case Compression::kNone:
      return net::wire::Format::kRaw;
    case Compression::kFp16:
      return net::wire::Format::kFp16;
    case Compression::kInt8:
      return net::wire::Format::kInt8;
    case Compression::kTopK:
      return net::wire::Format::kTopK;
  }
  return net::wire::Format::kRaw;
}

void ErrorFeedback::EnsureSize(std::size_t n) {
  if (residual_.size() == n) return;
  if (n > residual_.size()) {
    residual_.resize(n, 0.0f);
  } else {
    residual_.assign(n, 0.0f);
  }
}

std::span<float> ErrorFeedback::Slice(std::size_t offset, std::size_t n) {
  RNA_CHECK_MSG(offset + n <= residual_.size(),
                "error-feedback slice out of range");
  return std::span<float>(residual_).subspan(offset, n);
}

}  // namespace rna::collectives
