#include "topology.hpp"

#include "common/logging.hpp"

namespace edm {
namespace net {

namespace {

/** splitmix64 finalizer: cheap, well-mixed, and stable across builds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Topology::Topology(const core::TopologySpec &spec, std::size_t num_nodes)
    : spec_(spec), num_nodes_(num_nodes)
{
    if (isSingle()) {
        num_leaves_ = 1;
        return;
    }
    EDM_ASSERT(spec_.hosts_per_leaf >= 1,
               "leaf-spine topology needs hosts_per_leaf >= 1");
    EDM_ASSERT(spec_.trunk_width >= 1,
               "leaf-spine topology needs trunk_width >= 1");
    num_leaves_ =
        (num_nodes_ + spec_.hosts_per_leaf - 1) / spec_.hosts_per_leaf;
    EDM_ASSERT(num_leaves_ >= 2,
               "leaf-spine with %zu nodes at %zu hosts/leaf yields one "
               "leaf; use topology = single instead",
               num_nodes_, spec_.hosts_per_leaf);
}

std::size_t
Topology::ecmpLane(core::NodeId src, core::NodeId dst, core::MsgId id,
                   bool response) const
{
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) ^
        (static_cast<std::uint64_t>(dst) << 16) ^
        (static_cast<std::uint64_t>(id) << 1) ^
        (response ? 1ull : 0ull);
    return static_cast<std::size_t>(mix64(key ^ spec_.ecmp_seed) %
                                    spec_.trunk_width);
}

} // namespace net
} // namespace edm
