#include "sim/fabric.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "queue/factory.h"

namespace dtdctcp::sim {

namespace {

void check_dim(std::size_t v, std::size_t max, const char* what) {
  if (v == 0 || v > max) {
    throw std::invalid_argument(std::string("fat_tree: ") + what + "=" +
                                std::to_string(v) + " outside [1, " +
                                std::to_string(max) + "]");
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t FatTree::set_link_state(std::size_t link, bool up, SimTime now) {
  return apply_link_event(link_down, link, up, now, nullptr);
}

std::size_t FatTree::apply_link_event(
    std::vector<char>& down, std::size_t link, bool up, SimTime now,
    const std::function<bool(const Switch&)>& mine) {
  const std::size_t idx = link % links.size();
  const char want = up ? 0 : 1;
  if (down[idx] == want) return 0;  // idempotent: no state change
  down[idx] = want;
  rebuild_routes(down, mine);
  if (up) return 0;
  // Interface disabled: drain both endpoint queues (owned side only in
  // sharded runs). Packets already on the wire still deliver.
  const FabricLink& l = links[idx];
  std::size_t dropped = 0;
  if (mine == nullptr || mine(*l.a)) dropped += l.a->port(l.a_port).drop_queued(now);
  if (mine == nullptr || mine(*l.b)) dropped += l.b->port(l.b_port).drop_queued(now);
  return dropped;
}

void FatTree::rebuild_routes(const std::vector<char>& down,
                             const std::function<bool(const Switch&)>& mine) {
  // Collect the down (switch, port) endpoints once; the filter is a
  // linear scan over them (the down set is tiny in practice).
  std::vector<std::pair<const Switch*, std::size_t>> blocked;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!down[i]) continue;
    blocked.emplace_back(links[i].a, links[i].a_port);
    blocked.emplace_back(links[i].b, links[i].b_port);
  }
  Network::PortFilter usable;
  if (!blocked.empty()) {
    usable = [blocked = std::move(blocked)](const Switch& sw, std::size_t p) {
      for (const auto& [bsw, bp] : blocked) {
        if (bsw == &sw && bp == p) return false;
      }
      return true;
    };
  }
  net->rebuild_routes(usable, mine);
}

FatTree build_fat_tree(const FatTreeConfig& cfg,
                       const QueueFactory& switch_queue) {
  if (cfg.k == 0 || cfg.k % 2 != 0 || cfg.k > FatTreeConfig::kMaxK) {
    throw std::invalid_argument("fat_tree: k=" + std::to_string(cfg.k) +
                                " must be even and in [2, " +
                                std::to_string(FatTreeConfig::kMaxK) + "]");
  }
  check_dim(cfg.edge_hosts(), FatTreeConfig::kMaxHostsPerEdge,
            "hosts_per_edge");

  const std::size_t r = cfg.radix();

  FatTree out;
  out.cfg = cfg;
  out.net = std::make_unique<Network>();
  Network& net = *out.net;

  out.cores.reserve(cfg.cores());
  out.aggs.reserve(cfg.k * r);
  out.edges.reserve(cfg.k * r);
  out.hosts.reserve(cfg.total_hosts());
  out.links.reserve(cfg.total_fabric_links());

  const auto host_nic = queue::drop_tail(0, 0);

  for (std::size_t c = 0; c < cfg.cores(); ++c) {
    std::string name = "core";
    name += std::to_string(c);
    out.cores.push_back(&net.add_switch(name));
  }
  for (std::size_t p = 0; p < cfg.k; ++p) {
    std::string pod = "p";
    pod += std::to_string(p);
    pod += '_';
    for (std::size_t j = 0; j < r; ++j) {
      out.aggs.push_back(&net.add_switch(pod + "agg" + std::to_string(j)));
    }
    for (std::size_t e = 0; e < r; ++e) {
      Switch& edge = net.add_switch(pod + "edge" + std::to_string(e));
      out.edges.push_back(&edge);
      // Edge -> all pod aggs first, so each agg's edge-facing ports
      // precede its core uplinks in port-index order.
      for (std::size_t j = 0; j < r; ++j) {
        Switch& agg = *out.aggs[p * r + j];
        const auto [ep, ap] = net.connect_switches(
            edge, agg, cfg.edge_agg_bps, cfg.edge_agg_delay, switch_queue,
            switch_queue);
        out.links.push_back(
            {&edge, ep, &agg, ap, FabricLink::Tier::kEdgeAgg});
      }
      for (std::size_t h = 0; h < cfg.edge_hosts(); ++h) {
        Host& host = net.add_host(pod + "e" + std::to_string(e) + "_h" +
                                  std::to_string(h));
        net.attach_host(host, edge, cfg.host_link_bps, cfg.host_link_delay,
                        host_nic, switch_queue);
        out.hosts.push_back(&host);
      }
    }
    // Agg j -> cores [j*r, (j+1)*r): the canonical core striping.
    for (std::size_t j = 0; j < r; ++j) {
      Switch& agg = *out.aggs[p * r + j];
      for (std::size_t c = 0; c < r; ++c) {
        Switch& core = *out.cores[j * r + c];
        const auto [ap, cp] = net.connect_switches(
            agg, core, cfg.agg_core_bps, cfg.agg_core_delay, switch_queue,
            switch_queue);
        out.links.push_back(
            {&agg, ap, &core, cp, FabricLink::Tier::kAggCore});
      }
    }
  }

  switch (cfg.ecmp) {
    case EcmpMode::kLegacy:
      break;  // salt 0 everywhere (Switch default)
    case EcmpMode::kBalanced:
      for (const auto& node : net.nodes()) {
        if (auto* sw = dynamic_cast<Switch*>(node.get())) {
          std::uint64_t s = splitmix64(
              cfg.ecmp_seed ^ (static_cast<std::uint64_t>(sw->id()) + 1));
          if (s == 0) s = 1;  // 0 would mean "unsalted" on this switch
          sw->set_ecmp_salt(s);
        }
      }
      break;
    case EcmpMode::kPolarized: {
      // One identical non-zero salt: every tier repeats the previous
      // tier's hash decision and traffic collapses onto single uplinks.
      const std::uint64_t s = splitmix64(cfg.ecmp_seed) | 1;
      for (const auto& node : net.nodes()) {
        if (auto* sw = dynamic_cast<Switch*>(node.get())) {
          sw->set_ecmp_salt(s);
        }
      }
      break;
    }
  }

  out.link_down.assign(out.links.size(), 0);
  net.build_routes();
  return out;
}

}  // namespace dtdctcp::sim
