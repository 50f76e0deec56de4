#pragma once

// The wire format of the in-process fabric. A message carries a small
// integer metadata vector (iteration ids, contributor counts, group ids —
// whatever the protocol needs) plus a bulk float payload (gradient or
// parameter chunks). `tag` scopes the message to a logical channel, the
// in-process analogue of an MPI tag.

#include <cstdint>
#include <vector>

namespace rna::net {

using Rank = std::size_t;

// Every field has an initializer, so `{.tag = t, .meta = m}` may omit the
// rest.
struct Message {
  Rank src = 0;
  int tag = 0;
  std::vector<std::int64_t> meta = {};
  std::vector<float> data = {};

  std::size_t ByteSize() const {
    return meta.size() * sizeof(std::int64_t) + data.size() * sizeof(float);
  }
};

}  // namespace rna::net
