"""Check configuration: entry points, boundaries, sinks.

Patterns are matched against fully qualified function names with
`fnmatch`-style wildcards. Fixtures mimic these shapes (e.g. a fixture
defines `rna::nn::FixtureNet::ForwardBackward`), so the self-tests
exercise the same configuration the real run uses.
"""

from fnmatch import fnmatchcase

# -- no-heap-reachable -------------------------------------------------------

# The compute hot paths: one model step, and the collective data plane.
HEAP_ENTRY_PATTERNS = (
    "rna::nn::*::ForwardBackward",
    "rna::nn::*::Evaluate",
    "rna::collectives::AllreduceFor",
    "rna::collectives::PartialAllreduceFor",
    "rna::collectives::BroadcastFor",
    "rna::collectives::BarrierFor",
    "rna::collectives::detail::RingAllreduceFor",
    "rna::collectives::detail::TreeAllreduceFor",
)

# Sanctioned allocation routers: traversal does not descend into these and
# allocation sites inside them are by-design (they ARE the allocators /
# own their cold paths). Tensor storage routes through Arena; Message
# payloads route through BufferPool; obs has pre-sized ring buffers with
# documented cold-path registration.
HEAP_BOUNDARY_PATTERNS = (
    "rna::tensor::Arena*",
    "rna::tensor::Tensor::*",
    "rna::tensor::Shape::*",
    "rna::net::BufferPool::*",
    "rna::net::Fabric::*",       # Send consults fault plan / stats, pooled
    "rna::net::Mailbox::*",
    "rna::obs::*",
    "rna::common::Log*",
    "rna::common::CheckFail*",
    # Streaming data plane: batch assembly allocates by design (each batch
    # owns fresh label/tensor storage), but it runs on the generator's
    # prefetch thread — off the compute hot path — and the consumer side
    # only moves the pre-built batch out of the queue. The worker's
    # one-shot arena warm-up batch is cold by its pin-once contract.
    "rna::data::BatchGenerator::*",
    "rna::data::ShardView::MakeBatch*",
    "rna::train::WorkerContext::PinArenaCapacity",
)

# -- timed-recv --------------------------------------------------------------

# Every protocol/baseline entry point that must survive message loss.
RECV_ENTRY_PATTERNS = (
    "rna::core::RunTraining",
    "rna::core::RunHierarchicalRna",
    "rna::core::detail::*",
    "rna::baselines::Run*",
    "rna::ps::ParameterServer::*",
    "rna::ps::PsClient::*",
    "rna::train::*",
    "rna::collectives::*",
)

# The untimed blocking sinks. Reaching any of these from an entry point —
# through any wrapper chain — is a finding; the deadline variants
# (RecvFor/GetAnyFor/...) are the sanctioned transport.
RECV_SINK_PATTERNS = (
    "rna::net::Mailbox::Get",
    "rna::net::Mailbox::GetAny",
    "rna::net::Fabric::Recv",
    "rna::net::Fabric::RecvAny",
)

# The transport that would own an untimed receive (none exists: every
# fabric receive takes a deadline, and the sinks above stay listed so that
# re-adding one fails this check); a finding should point at protocol code
# reaching a sink, not at the transport's own bodies.
RECV_SINK_OWNERS = (
    "rna::net::Mailbox::*",
    "rna::net::Fabric::*",
)

# -- tag-discipline ----------------------------------------------------------

TAGS_HEADER = "src/train/include/rna/train/tags.hpp"
SCHEDULE_HEADER = "src/collectives/include/rna/collectives/schedule.hpp"
PS_HEADER = "src/ps/include/rna/ps/server.hpp"

# Guarantees the protocols rely on (see tags.hpp comments): ring tags must
# be round-unique for worlds at least this large, for at least this many
# rounds.
TAG_MIN_WORLD = 1024
TAG_MIN_ROUNDS = 100_000

# Files whose tag expressions are checked (protocol + transport layers).
TAG_SCAN_PREFIXES = (
    "src/core/", "src/train/", "src/baselines/", "src/ps/",
    "src/collectives/",
)

# Identifiers that legitimise a tag expression: a named tag family or a
# plumbing parameter carrying a caller-validated base.
TAG_FAMILY_TOKENS = (
    "RingTag", "GroupCastTag", "BarrierTag", "TagOf", "RingTagSpan",
    "TreeTagSpan",
)
TAG_PLUMBING_TOKENS = (
    "tag_base", "tag", "push_tag", "tag_lo", "tag_hi", "base",
)


def matches_any(qname, patterns):
    return any(fnmatchcase(qname, p) for p in patterns)
