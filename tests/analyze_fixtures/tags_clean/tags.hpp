// Must-pass tag header: the production layout — distinct control tags,
// a barrier family parity-striped by round, group-cast rounds below the
// ring range, and a ring stride wide enough for world <= 2048.
#include <cstddef>

namespace rna::train::tags {

inline constexpr int kReady = 100;
inline constexpr int kGo = 103;
inline constexpr int kRoundEnd = 105;
inline constexpr int kStep = 107;
inline constexpr int kGoodbye = 108;
inline constexpr int kBarrier = 300;
inline constexpr int kAvgReq = 400;
inline constexpr int kAvgRep = 401;
inline constexpr int kGroupRing = 500;
inline constexpr int kGroupCastBase = 1 << 21;
inline constexpr int kRingBase = 1 << 22;
inline constexpr int kRingStride = 4096;

inline constexpr int BarrierTag(std::size_t round) {
  return kBarrier + static_cast<int>(round % 2) * 8;
}

inline constexpr int GroupCastTag(std::size_t round) {
  return kGroupCastBase + static_cast<int>(round % 1024);
}

inline constexpr int RingTag(std::size_t round) {
  return kRingBase + static_cast<int>(round % 100000) * kRingStride;
}

}  // namespace rna::train::tags
