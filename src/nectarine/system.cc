#include "system.hh"

#include "sim/logging.hh"
#include "topo/topofile.hh"

namespace nectar::nectarine {

NectarSystem::NectarSystem(sim::EventQueue &eq,
                           std::unique_ptr<topo::Topology> topology)
    : eq(eq), topology(std::move(topology)), dir(*this->topology)
{
    if (!this->topology)
        sim::fatal("NectarSystem: null topology");
}

CabSite &
NectarSystem::addCab(int hubIndex, hub::PortId port,
                     const std::string &name, const SiteConfig &config,
                     sim::Tick fiberDelay)
{
    auto site = std::make_unique<CabSite>();
    site->address =
        static_cast<transport::CabAddress>(sites.size() + 1);
    site->at = topo::Endpoint{hubIndex, port};

    std::string cab_name =
        name.empty() ? "cab" + std::to_string(site->address) : name;

    site->board = std::make_unique<cab::Cab>(eq, cab_name, config.cab);
    auto &tx = topology->attachEndpoint(*site->board, hubIndex, port,
                                        cab_name, fiberDelay);
    site->board->attachTx(tx);

    site->kernel = std::make_unique<cabos::Kernel>(*site->board);
    site->datalink = std::make_unique<datalink::Datalink>(
        *site->kernel, config.datalink);
    site->transport = std::make_unique<transport::Transport>(
        *site->kernel, *site->datalink, dir, site->address,
        config.transport);

    dir.registerCab(site->address, site->at);
    site->transport->setProbe(deliveryProbe);
    sites.push_back(std::move(site));
    return *sites.back();
}

void
NectarSystem::attachDeliveryProbe(transport::DeliveryProbe *probe)
{
    deliveryProbe = probe;
    for (auto &s : sites)
        s->transport->setProbe(probe);
}

CabSite &
NectarSystem::site(std::size_t i)
{
    if (i >= sites.size())
        sim::panic("NectarSystem::site: bad index");
    return *sites[i];
}

hub::HubConfig
NectarSystem::defaultHubConfig()
{
    hub::HubConfig cfg;
    cfg.circuitIdleTimeout = 1 * sim::ticks::ms;
    return cfg;
}

std::unique_ptr<NectarSystem>
NectarSystem::fromDescription(sim::EventQueue &eq,
                              const topo::TopologyDescription &desc,
                              const SiteConfig &config,
                              const hub::HubConfig &hubConfig)
{
    auto sys = std::make_unique<NectarSystem>(
        eq, topo::buildTopology(eq, desc, hubConfig));
    for (const topo::CabDecl &c : desc.cabs)
        sys->addCab(c.hub, c.port, c.name, config, c.latency);
    return sys;
}

std::unique_ptr<NectarSystem>
NectarSystem::fromTopoFile(sim::EventQueue &eq,
                           const std::string &path,
                           const SiteConfig &config,
                           const hub::HubConfig &hubConfig)
{
    return fromDescription(eq, topo::loadTopologyFile(path), config,
                           hubConfig);
}

std::unique_ptr<NectarSystem>
NectarSystem::singleHub(sim::EventQueue &eq, int cabs,
                        const SiteConfig &config,
                        const hub::HubConfig &hubConfig)
{
    if (cabs > hubConfig.numPorts)
        sim::fatal("NectarSystem::singleHub: more CABs than ports");
    return fromDescription(
        eq, topo::describeSingleHub(cabs, hubConfig.numPorts), config,
        hubConfig);
}

std::unique_ptr<NectarSystem>
NectarSystem::mesh2D(sim::EventQueue &eq, int rows, int cols,
                     int cabsPerHub, const SiteConfig &config,
                     const hub::HubConfig &hubConfig)
{
    if (cabsPerHub > hubConfig.numPorts - 4)
        sim::fatal("NectarSystem::mesh2D: mesh links need 4 ports "
                   "per HUB");
    return fromDescription(
        eq,
        topo::describeMesh2D(rows, cols, cabsPerHub, 0,
                             hubConfig.numPorts),
        config, hubConfig);
}

} // namespace nectar::nectarine
