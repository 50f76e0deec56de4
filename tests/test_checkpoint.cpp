// Tests for binary checkpointing and the command-line flag parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "rna/common/flags.hpp"
#include "rna/train/checkpoint.hpp"

namespace rna {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Checkpoint, RoundTrip) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  const std::vector<float> params = {1.0f, -2.5f, 3.25f};
  const std::vector<float> velocity = {0.1f, 0.2f, 0.3f};
  train::SaveCheckpoint(path, params, velocity, 77);
  const train::Checkpoint loaded = train::LoadCheckpoint(path);
  EXPECT_EQ(loaded.params, params);
  EXPECT_EQ(loaded.velocity, velocity);
  EXPECT_EQ(loaded.round, 77u);
  std::remove(path.c_str());
}

TEST(Checkpoint, NoVelocity) {
  const std::string path = TempPath("ckpt_novel.bin");
  train::SaveCheckpoint(path, std::vector<float>{4.0f}, {}, 3);
  const train::Checkpoint loaded = train::LoadCheckpoint(path);
  EXPECT_EQ(loaded.params.size(), 1u);
  EXPECT_TRUE(loaded.velocity.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, OverwriteIsAtomic) {
  const std::string path = TempPath("ckpt_overwrite.bin");
  train::SaveCheckpoint(path, std::vector<float>{1.0f}, {}, 1);
  train::SaveCheckpoint(path, std::vector<float>{2.0f, 3.0f}, {}, 2);
  const train::Checkpoint loaded = train::LoadCheckpoint(path);
  EXPECT_EQ(loaded.params.size(), 2u);
  EXPECT_EQ(loaded.round, 2u);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(train::LoadCheckpoint(TempPath("nope.bin")),
               std::runtime_error);
}

TEST(Checkpoint, BadMagicThrows) {
  const std::string path = TempPath("ckpt_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, padding padding padding";
  }
  EXPECT_THROW(train::LoadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedPayloadThrows) {
  const std::string path = TempPath("ckpt_trunc.bin");
  train::SaveCheckpoint(path, std::vector<float>(64, 1.0f), {}, 1);
  // Chop off the tail of the payload.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 32));
  }
  EXPECT_THROW(train::LoadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// A 32-byte file whose header claims 2^40 floats must be rejected from the
// file size, before anything is allocated for the payload.
TEST(Checkpoint, OversizedHeaderThrowsBeforeAllocating) {
  const std::string path = TempPath("ckpt_oversized.bin");
  {
    const std::uint64_t header[4] = {0x524e414350543031ULL,  // "RNACPT01"
                                      std::uint64_t{1} << 40, 0, 1};
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  EXPECT_THROW(train::LoadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMismatchedVelocity) {
  EXPECT_THROW(train::SaveCheckpoint(TempPath("ckpt_bad.bin"),
                                     std::vector<float>{1.0f, 2.0f},
                                     std::vector<float>{1.0f}, 0),
               std::logic_error);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha=3",   "--beta", "7",
                        "--gamma",   "--delta=0.5", "pos1",   "--name",
                        "hello",     "pos2"};
  common::Flags flags(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("delta", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "hello");
  ASSERT_EQ(flags.Positional().size(), 2u);
  EXPECT_EQ(flags.Positional()[0], "pos1");
  EXPECT_EQ(flags.Positional()[1], "pos2");
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  common::Flags flags(1, argv);
  EXPECT_FALSE(flags.Has("anything"));
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_EQ(flags.GetString("s", "x"), "x");
  EXPECT_FALSE(flags.GetBool("b", false));
}

TEST(Flags, BadNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  common::Flags flags(2, argv);
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("n", 0), std::invalid_argument);
}

}  // namespace
}  // namespace rna
