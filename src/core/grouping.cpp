#include <algorithm>
#include <functional>
#include <numeric>

#include "rna/common/check.hpp"
#include "rna/core/rna.hpp"

namespace rna::core {

std::vector<std::size_t> ComputeSpeedGroups(const std::vector<double>& times) {
  RNA_CHECK_MSG(!times.empty(), "no workers to group");
  std::vector<std::size_t> group_of(times.size(), 0);
  std::size_t next_group = 0;

  // Recursive partition-and-group (§4): a worker set is homogeneous enough
  // when the fastest-to-slowest spread ζ does not exceed the mean iteration
  // time v; otherwise split around the mean and recurse into both halves.
  std::function<void(std::vector<std::size_t>)> partition =
      [&](std::vector<std::size_t> members) {
        RNA_CHECK(!members.empty());
        double lo = times[members[0]], hi = times[members[0]], sum = 0.0;
        for (std::size_t m : members) {
          lo = std::min(lo, times[m]);
          hi = std::max(hi, times[m]);
          sum += times[m];
        }
        const double mean = sum / static_cast<double>(members.size());
        const double zeta = hi - lo;
        if (zeta <= mean || members.size() == 1) {
          const std::size_t id = next_group++;
          for (std::size_t m : members) group_of[m] = id;
          return;
        }
        std::vector<std::size_t> fast, slow;
        for (std::size_t m : members) {
          (times[m] > mean ? slow : fast).push_back(m);
        }
        // Degenerate split (all on one side of the mean cannot happen when
        // ζ > 0, but guard against pathological float equality).
        if (fast.empty() || slow.empty()) {
          const std::size_t id = next_group++;
          for (std::size_t m : members) group_of[m] = id;
          return;
        }
        partition(std::move(fast));
        partition(std::move(slow));
      };

  std::vector<std::size_t> all(times.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  partition(std::move(all));
  return group_of;
}

}  // namespace rna::core
