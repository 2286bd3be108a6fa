/**
 * @file
 * The network directory: CAB addresses, attachment points, routes.
 *
 * The Nectar prototype's CABs know the network topology (routes are
 * sequences of HUB commands, Section 4.2); this directory is the
 * shared name service mapping a CAB address to its attachment point
 * and caching the command routes between CAB pairs.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "topo/topology.hh"
#include "transport/header.hh"

namespace nectar::transport {

/** Maps CAB addresses to attachment points; caches routes. */
class NetworkDirectory
{
  public:
    /** @param topo The system topology routes are computed on. */
    explicit NetworkDirectory(topo::Topology &topo) : topo(topo) {}

    /** Register a CAB's attachment point. */
    void
    registerCab(CabAddress cab, const topo::Endpoint &at)
    {
        if (!attachments.emplace(cab, at).second)
            sim::fatal("NetworkDirectory: CAB address already "
                       "registered: " + std::to_string(cab));
    }

    /** Attachment point of @p cab. */
    const topo::Endpoint &
    endpointOf(CabAddress cab) const
    {
        auto it = attachments.find(cab);
        if (it == attachments.end())
            sim::fatal("NetworkDirectory: unknown CAB address " +
                       std::to_string(cab));
        return it->second;
    }

    /** True if @p cab is registered. */
    bool
    known(CabAddress cab) const
    {
        return attachments.count(cab) > 0;
    }

    /**
     * Command route from @p from to @p to (cached).
     *
     * The cache is keyed to the topology's link version: any
     * markLinkDown/markLinkUp invalidates it, and recomputations
     * that produce a different route than before are counted as
     * reroutes (the campaign report's "observed reroutes").
     *
     * May be empty when link failures leave no surviving path.
     */
    const topo::RouteHandle &
    route(CabAddress from, CabAddress to)
    {
        if (version != topo.linkVersion()) {
            staleRoutes = std::move(routes);
            routes.clear();
            version = topo.linkVersion();
        }
        auto key = std::make_pair(from, to);
        auto it = routes.find(key);
        if (it == routes.end()) {
            it = routes
                     .emplace(key, std::make_shared<const topo::Route>(
                                       topo.route(endpointOf(from),
                                                  endpointOf(to))))
                     .first;
            auto old = staleRoutes.find(key);
            if (old != staleRoutes.end() &&
                *old->second != *it->second)
                _reroutes.add();
        }
        return it->second;
    }

    /**
     * Multicast tree route from @p from to every CAB in @p members
     * (cached per sorted member set, invalidated by link events like
     * route()).  Empty when link failures leave any member
     * unreachable — callers fall back to per-member unicast fan-out.
     */
    const topo::RouteHandle &
    multicastRoute(CabAddress from, std::vector<CabAddress> members)
    {
        if (mcastVersion != topo.linkVersion()) {
            mcastRoutes.clear();
            mcastVersion = topo.linkVersion();
        }
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        auto key = std::make_pair(from, members);
        auto it = mcastRoutes.find(key);
        if (it == mcastRoutes.end()) {
            std::vector<topo::Endpoint> to;
            to.reserve(members.size());
            for (CabAddress m : members)
                to.push_back(endpointOf(m));
            it = mcastRoutes
                     .emplace(key, std::make_shared<const topo::Route>(
                                       topo.multicastRoute(
                                           endpointOf(from), to)))
                     .first;
        }
        return it->second;
    }

    /** Route recomputations that changed the path after a link event. */
    std::uint64_t reroutes() const { return _reroutes.value(); }

    /** Number of registered CABs. */
    std::size_t size() const { return attachments.size(); }

    topo::Topology &topology() { return topo; }

  private:
    topo::Topology &topo;
    std::map<CabAddress, topo::Endpoint> attachments;
    std::map<std::pair<CabAddress, CabAddress>, topo::RouteHandle>
        routes;
    std::map<std::pair<CabAddress, CabAddress>, topo::RouteHandle>
        staleRoutes;
    std::map<std::pair<CabAddress, std::vector<CabAddress>>,
             topo::RouteHandle>
        mcastRoutes;
    std::uint64_t version = 0;
    std::uint64_t mcastVersion = 0;
    sim::Counter _reroutes;
};

} // namespace nectar::transport
