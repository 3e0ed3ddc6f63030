#include "sim/leaf_spine.h"

#include <stdexcept>
#include <string>

#include "queue/factory.h"

namespace dtdctcp::sim {

namespace {

void check_dim(std::size_t v, std::size_t max, const char* what) {
  if (v == 0 || v > max) {
    throw std::invalid_argument(std::string("leaf_spine: ") + what + "=" +
                                std::to_string(v) + " outside [1, " +
                                std::to_string(max) + "]");
  }
}

}  // namespace

LeafSpine build_leaf_spine(const LeafSpineConfig& cfg,
                           const QueueFactory& switch_queue) {
  check_dim(cfg.spines, LeafSpineConfig::kMaxSpines, "spines");
  check_dim(cfg.leaves, LeafSpineConfig::kMaxLeaves, "leaves");
  check_dim(cfg.hosts_per_leaf, LeafSpineConfig::kMaxHostsPerLeaf,
            "hosts_per_leaf");

  LeafSpine out;
  out.net = std::make_unique<Network>();
  Network& net = *out.net;

  out.spines.reserve(cfg.spines);
  out.leaves.reserve(cfg.leaves);
  out.hosts.reserve(cfg.total_hosts());

  const auto host_nic = queue::drop_tail(0, 0);

  for (std::size_t s = 0; s < cfg.spines; ++s) {
    out.spines.push_back(&net.add_switch("spine" + std::to_string(s)));
  }
  for (std::size_t l = 0; l < cfg.leaves; ++l) {
    Switch& leaf = net.add_switch("leaf" + std::to_string(l));
    out.leaves.push_back(&leaf);
    for (Switch* spine : out.spines) {
      net.connect_switches(leaf, *spine, cfg.fabric_link_bps,
                           cfg.fabric_link_delay, switch_queue,
                           switch_queue);
    }
    for (std::size_t h = 0; h < cfg.hosts_per_leaf; ++h) {
      std::string name = "h";
      name += std::to_string(l);
      name += '_';
      name += std::to_string(h);
      Host& host = net.add_host(name);
      net.attach_host(host, leaf, cfg.host_link_bps, cfg.host_link_delay,
                      host_nic, switch_queue);
      out.hosts.push_back(&host);
    }
  }
  net.build_routes();
  return out;
}

}  // namespace dtdctcp::sim
