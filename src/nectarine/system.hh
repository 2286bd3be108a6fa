/**
 * @file
 * Whole-system assembly: the Nectar-net plus fully stacked CABs.
 *
 * Builds the system of Figure 1: a topology of HUBs with CABs
 * attached, each CAB running its kernel, datalink, and transport.
 * Nodes (src/node) and the Nectarine programming interface layer on
 * top of the sites this class creates.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cab/cab.hh"
#include "cabos/kernel.hh"
#include "datalink/datalink.hh"
#include "topo/topology.hh"
#include "transport/directory.hh"
#include "transport/transport.hh"

namespace nectar::nectarine {

/** Per-site configuration overrides. */
struct SiteConfig
{
    cab::CabConfig cab;
    datalink::DatalinkConfig datalink;
    transport::TransportConfig transport;
};

/**
 * One CAB attachment: the board and its software stack.
 */
struct CabSite
{
    transport::CabAddress address = 0;
    topo::Endpoint at;
    std::unique_ptr<cab::Cab> board;
    std::unique_ptr<cabos::Kernel> kernel;
    std::unique_ptr<datalink::Datalink> datalink;
    std::unique_ptr<transport::Transport> transport;
};

/**
 * A complete Nectar system: topology, directory, and CAB sites.
 */
class NectarSystem
{
  public:
    /**
     * @param eq Event queue.
     * @param topology The HUB interconnect (takes ownership).
     */
    NectarSystem(sim::EventQueue &eq,
                 std::unique_ptr<topo::Topology> topology);

    /**
     * Attach a CAB to @p hubIndex/@p port with a full software stack.
     *
     * @param name Instance name ("" derives cab<N>).
     * @param config Per-site tuning.
     * @param fiberDelay Propagation delay of the attachment fibers.
     * @return The new site.
     */
    CabSite &addCab(int hubIndex, hub::PortId port,
                    const std::string &name = "",
                    const SiteConfig &config = {},
                    sim::Tick fiberDelay = 0);

    /** Attach a CAB on the first free port of @p hubIndex. */
    CabSite &
    addCabAuto(int hubIndex, const SiteConfig &config = {})
    {
        return addCab(hubIndex, topo().firstFreePort(hubIndex), "",
                      config);
    }

    CabSite &site(std::size_t i);
    std::size_t siteCount() const { return sites.size(); }

    topo::Topology &topo() { return *topology; }
    transport::NetworkDirectory &directory() { return dir; }
    sim::EventQueue &eventq() { return eq; }

    /**
     * Attach @p probe to every existing site's transport and to
     * every site added later (nullptr detaches).  The probe must
     * outlive the system or be detached first.
     */
    void attachDeliveryProbe(transport::DeliveryProbe *probe);

    // ----- Convenience builders -------------------------------------

    /**
     * HUB configuration the builders default to: stock hardware plus
     * the idle-circuit watchdog.  A bare HUB leaves it off so circuits
     * persist as the hardware's do; a full transport stack is what
     * gets wedged when a lost close all strands one, so the system
     * builders turn it on.
     */
    static hub::HubConfig defaultHubConfig();

    /**
     * Build a whole system from a declarative fabric: HUBs and
     * trunks via topo::buildTopology, then one CAB site per CabDecl
     * in declared order (so addresses follow the description).  The
     * generator-based builders below are thin wrappers over this.
     */
    static std::unique_ptr<NectarSystem>
    fromDescription(sim::EventQueue &eq,
                    const topo::TopologyDescription &desc,
                    const SiteConfig &config = {},
                    const hub::HubConfig &hubConfig =
                        defaultHubConfig());

    /** fromDescription() of a .topo file (topo::loadTopologyFile). */
    static std::unique_ptr<NectarSystem>
    fromTopoFile(sim::EventQueue &eq, const std::string &path,
                 const SiteConfig &config = {},
                 const hub::HubConfig &hubConfig =
                     defaultHubConfig());

    /** A single-HUB star with @p cabs CABs (Figure 2). */
    static std::unique_ptr<NectarSystem>
    singleHub(sim::EventQueue &eq, int cabs,
              const SiteConfig &config = {},
              const hub::HubConfig &hubConfig = defaultHubConfig());

    /**
     * A rows x cols 2-D mesh of HUB clusters with @p cabsPerHub CABs
     * on each (Figure 4).
     */
    static std::unique_ptr<NectarSystem>
    mesh2D(sim::EventQueue &eq, int rows, int cols, int cabsPerHub,
           const SiteConfig &config = {},
           const hub::HubConfig &hubConfig = defaultHubConfig());

  private:
    sim::EventQueue &eq;
    std::unique_ptr<topo::Topology> topology;
    transport::NetworkDirectory dir;
    std::vector<std::unique_ptr<CabSite>> sites;
    transport::DeliveryProbe *deliveryProbe = nullptr;
};

} // namespace nectar::nectarine
