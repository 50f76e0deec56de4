#include "rna/train/checkpoint.hpp"

#include <cstdio>
#include <stdexcept>

#include "rna/common/check.hpp"

namespace rna::train {

namespace {

constexpr std::uint64_t kMagic = 0x524e414350543031ULL;  // "RNACPT01"

struct Header {
  std::uint64_t magic;
  std::uint64_t dim;
  std::uint64_t velocity_dim;
  std::uint64_t round;
};

class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {
    if (f_ == nullptr) {
      throw std::runtime_error("cannot open checkpoint file: " + path);
    }
  }
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
};

}  // namespace

void SaveCheckpoint(const std::string& path, std::span<const float> params,
                    std::span<const float> velocity, std::uint64_t round) {
  RNA_CHECK_MSG(velocity.empty() || velocity.size() == params.size(),
                "velocity must be empty or match params");
  const std::string tmp = path + ".tmp";
  {
    File file(tmp, "wb");
    const Header header{kMagic, params.size(), velocity.size(), round};
    if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1 ||
        (params.size() > 0 &&
         std::fwrite(params.data(), sizeof(float), params.size(),
                     file.get()) != params.size()) ||
        (velocity.size() > 0 &&
         std::fwrite(velocity.data(), sizeof(float), velocity.size(),
                     file.get()) != velocity.size())) {
      throw std::runtime_error("checkpoint write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint rename failed: " + path);
  }
}

Checkpoint LoadCheckpoint(const std::string& path) {
  File file(path, "rb");
  Header header{};
  if (std::fread(&header, sizeof(header), 1, file.get()) != 1) {
    throw std::runtime_error("checkpoint truncated: " + path);
  }
  if (header.magic != kMagic) {
    throw std::runtime_error("not a checkpoint file: " + path);
  }
  if (header.velocity_dim != 0 && header.velocity_dim != header.dim) {
    throw std::runtime_error("corrupt checkpoint header: " + path);
  }
  // The payload must fit in the file before anything is sized from the
  // header: a corrupt dim would otherwise request an arbitrary allocation.
  // Compared in floats, as dim ≤ cap and velocity_dim ≤ cap − dim, so no
  // sum or product can overflow.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    throw std::runtime_error("cannot size checkpoint file: " + path);
  }
  const long file_bytes = std::ftell(file.get());
  if (file_bytes < static_cast<long>(sizeof(header)) ||
      std::fseek(file.get(), sizeof(header), SEEK_SET) != 0) {
    throw std::runtime_error("cannot size checkpoint file: " + path);
  }
  const std::uint64_t cap =
      (static_cast<std::uint64_t>(file_bytes) - sizeof(header)) /
      sizeof(float);
  if (header.dim > cap || header.velocity_dim > cap - header.dim) {
    throw std::runtime_error("checkpoint header exceeds file size: " + path);
  }
  Checkpoint ckpt;
  ckpt.round = header.round;
  ckpt.params.resize(header.dim);
  ckpt.velocity.resize(header.velocity_dim);
  if (header.dim > 0 &&
      std::fread(ckpt.params.data(), sizeof(float), header.dim, file.get()) !=
          header.dim) {
    throw std::runtime_error("checkpoint params truncated: " + path);
  }
  if (header.velocity_dim > 0 &&
      std::fread(ckpt.velocity.data(), sizeof(float), header.velocity_dim,
                 file.get()) != header.velocity_dim) {
    throw std::runtime_error("checkpoint velocity truncated: " + path);
  }
  return ckpt;
}

}  // namespace rna::train
