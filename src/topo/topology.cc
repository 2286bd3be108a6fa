#include "topology.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "sim/logging.hh"

namespace nectar::topo {

Topology::Topology(sim::EventQueue &eq, const hub::HubConfig &config)
    : eq(eq), config(config), _wiring(eq)
{
}

int
Topology::addHub(const std::string &name)
{
    int index = numHubs();
    if (index > 255)
        sim::fatal("Topology: more than 256 HUBs");
    std::string hub_name =
        name.empty() ? "hub" + std::to_string(index) : name;
    hubs.push_back(std::make_unique<hub::Hub>(
        eq, hub_name, static_cast<std::uint8_t>(index), config));
    portUsed.emplace_back(config.numPorts, false);
    _table.reset(); // the graph grew: stale table, recompile lazily
    return index;
}

hub::Hub &
Topology::hubAt(int i)
{
    if (i < 0 || i >= numHubs())
        sim::panic("Topology::hubAt: bad index");
    return *hubs[i];
}

const hub::Hub &
Topology::hubAt(int i) const
{
    if (i < 0 || i >= numHubs())
        sim::panic("Topology::hubAt: bad index");
    return *hubs[i];
}

bool
Topology::portFree(int hubIndex, hub::PortId port) const
{
    if (hubIndex < 0 || hubIndex >= numHubs())
        sim::panic("Topology::portFree: bad hub index");
    if (port < 0 || port >= config.numPorts)
        return false;
    return !portUsed[hubIndex][port];
}

hub::PortId
Topology::firstFreePort(int hubIndex) const
{
    for (int p = 0; p < config.numPorts; ++p)
        if (portFree(hubIndex, p))
            return p;
    return hub::noPort;
}

int
Topology::linkHubs(int a, hub::PortId pa, int b, hub::PortId pb,
                   sim::Tick propDelay, int width)
{
    if (!portFree(a, pa) || !portFree(b, pb))
        sim::fatal("Topology::linkHubs: port already wired");
    if (a == b)
        sim::fatal("Topology::linkHubs: self-link");
    if (width < 1)
        sim::fatal("Topology::linkHubs: width < 1");
    FiberPair fibers = _wiring.connectHubPorts(
        *hubs[a], pa, *hubs[b], pb, propDelay,
        sim::proto::fiberByteTime / width);
    portUsed[a][pa] = true;
    portUsed[b][pb] = true;
    int index = static_cast<int>(_hubLinks.size());
    _hubLinks.push_back(HubLink{a, pa, b, pb, fibers.forward,
                                fibers.reverse, true});
    _table.reset(); // the graph grew: stale table, recompile lazily
    return index;
}

phys::FiberLink &
Topology::attachEndpoint(phys::FiberSink &rx, int hubIndex,
                         hub::PortId port, const std::string &name,
                         sim::Tick propDelay)
{
    if (!portFree(hubIndex, port))
        sim::fatal("Topology::attachEndpoint: port already wired");
    portUsed[hubIndex][port] = true;
    FiberPair fibers = _wiring.connectEndpointPair(
        rx, *hubs[hubIndex], port, name, propDelay);
    endpointLinks[{hubIndex, port}] = fibers;
    return *fibers.forward;
}

// --------------------------------------------------------------------
// Link health.
// --------------------------------------------------------------------

int
Topology::findHubLink(int hub, hub::PortId port) const
{
    for (std::size_t i = 0; i < _hubLinks.size(); ++i) {
        const HubLink &l = _hubLinks[i];
        if ((l.a == hub && l.pa == port) ||
            (l.b == hub && l.pb == port))
            return static_cast<int>(i);
    }
    return -1;
}

void
Topology::setLinkState(int linkIndex, bool up)
{
    HubLink &l = _hubLinks[linkIndex];
    if (l.up == up)
        return;
    l.up = up;
    l.ab->setLinkUp(up);
    l.ba->setLinkUp(up);
    if (up) {
        // Link reinitialization re-arms hop-by-hop flow control: a
        // ready signal in flight when the light went out is gone for
        // good, and everything queued downstream was dropped with it,
        // so both output registers may treat the far queue as drained.
        hubAt(l.a).port(l.pa).setReady(true);
        hubAt(l.b).port(l.pb).setReady(true);
    }
    ++_linkVersion;
}

void
Topology::markLinkDown(int hub, hub::PortId port)
{
    int i = findHubLink(hub, port);
    if (i < 0)
        sim::fatal("Topology::markLinkDown: no inter-HUB link at "
                   "hub " + std::to_string(hub) + " port " +
                   std::to_string(port));
    setLinkState(i, false);
}

void
Topology::markLinkUp(int hub, hub::PortId port)
{
    int i = findHubLink(hub, port);
    if (i < 0)
        sim::fatal("Topology::markLinkUp: no inter-HUB link at "
                   "hub " + std::to_string(hub) + " port " +
                   std::to_string(port));
    setLinkState(i, true);
}

void
Topology::markLinkDownBetween(int a, int b)
{
    for (std::size_t i = 0; i < _hubLinks.size(); ++i) {
        const HubLink &l = _hubLinks[i];
        if (l.up && ((l.a == a && l.b == b) || (l.a == b && l.b == a))) {
            setLinkState(static_cast<int>(i), false);
            return;
        }
    }
    sim::fatal("Topology::markLinkDownBetween: no up link between "
               "hubs " + std::to_string(a) + " and " +
               std::to_string(b));
}

void
Topology::markLinkUpBetween(int a, int b)
{
    for (std::size_t i = 0; i < _hubLinks.size(); ++i) {
        const HubLink &l = _hubLinks[i];
        if (!l.up &&
            ((l.a == a && l.b == b) || (l.a == b && l.b == a))) {
            setLinkState(static_cast<int>(i), true);
            return;
        }
    }
    sim::fatal("Topology::markLinkUpBetween: no down link between "
               "hubs " + std::to_string(a) + " and " +
               std::to_string(b));
}

bool
Topology::linkIsUp(int hub, hub::PortId port) const
{
    int i = findHubLink(hub, port);
    if (i < 0)
        sim::fatal("Topology::linkIsUp: no inter-HUB link there");
    return _hubLinks[i].up;
}

bool
Topology::reachable(int fromHub, int toHub) const
{
    if (fromHub < 0 || fromHub >= numHubs() || toHub < 0 ||
        toHub >= numHubs())
        sim::fatal("Topology::reachable: bad hub index");
    return routeTable().reachable(fromHub, toHub);
}

const FiberPair &
Topology::endpointFibers(int hub, hub::PortId port) const
{
    auto it = endpointLinks.find({hub, port});
    if (it == endpointLinks.end())
        sim::fatal("Topology::endpointFibers: no endpoint at hub " +
                   std::to_string(hub) + " port " +
                   std::to_string(port));
    return it->second;
}

const RouteTable &
Topology::routeTable() const
{
    if (!_table || _tableVersion != _linkVersion) {
        FabricGraph g(numHubs());
        for (const HubLink &l : _hubLinks)
            g.addLink(l.a, l.pa, l.b, l.pb, l.up);
        _table = std::make_unique<RouteTable>(RouteTable::compile(g));
        _tableVersion = _linkVersion;
        ++_compiles;
    }
    return *_table;
}

Route
Topology::route(const Endpoint &from, const Endpoint &to) const
{
    if (from.hubIndex < 0 || from.hubIndex >= numHubs() ||
        to.hubIndex < 0 || to.hubIndex >= numHubs())
        sim::fatal("Topology::route: bad endpoint");

    // Hub path from the compiled table.  An unreachable destination
    // yields an empty route: link failures are an operational
    // condition, not a programming error, and the transport's
    // retransmission machinery turns it into a retried (and
    // eventually healed) transmission failure.
    const RouteTable &table = routeTable();
    std::vector<RouteTable::PathHop> hops;
    if (!table.path(from.hubIndex, to.hubIndex, hops))
        return {};

    Route r;
    for (const RouteTable::PathHop &h : hops)
        r.push_back(Hop{hubs[h.hub]->hubId(), h.outPort, false});
    // Final hop: open the destination CAB's port, with reply.
    r.push_back(Hop{hubs[to.hubIndex]->hubId(), to.port, true});
    return r;
}

Route
Topology::multicastRoute(const Endpoint &from,
                         const std::vector<Endpoint> &to) const
{
    if (to.empty())
        sim::fatal("Topology::multicastRoute: no destinations");

    const RouteTable &table = routeTable();

    // Terminal opens (CAB ports) are collected per hub; the spanning
    // tree over transit hubs comes from the compiled table.
    std::map<int, std::vector<hub::PortId>> terminals;
    std::vector<int> destHubs;
    for (const Endpoint &dst : to) {
        if (dst.hubIndex < 0 || dst.hubIndex >= numHubs())
            sim::fatal("Topology::multicastRoute: bad endpoint");
        if (dst.hubIndex != from.hubIndex &&
            !table.reachable(from.hubIndex, dst.hubIndex)) {
            // Like route(): an unreachable member is an operational
            // condition (link failures), not a programming error.
            // An empty route tells the caller the tree cannot be
            // built; transports fall back to per-member unicast.
            return {};
        }
        auto &opens = terminals[dst.hubIndex];
        if (std::find(opens.begin(), opens.end(), dst.port) !=
            opens.end())
            continue; // duplicate destination: open each port once
        opens.push_back(dst.port);
        destHubs.push_back(dst.hubIndex);
    }

    RouteTable::McTree tree =
        table.multicastTree(from.hubIndex, destHubs);
    if (!tree.ok)
        return {};

    // Depth-first emission, matching the Section 4.2.2 example:
    // at each hub, first open terminal (CAB) ports with reply, then
    // recurse into child hubs.
    Route r;
    std::function<void(int)> visit = [&](int h) {
        auto t = terminals.find(h);
        if (t != terminals.end()) {
            for (hub::PortId p : t->second)
                r.push_back(Hop{hubs[h]->hubId(), p, true});
        }
        auto c = tree.children.find(h);
        if (c != tree.children.end()) {
            for (auto [port, child] : c->second) {
                r.push_back(Hop{hubs[h]->hubId(), port, false});
                visit(child);
            }
        }
    };
    visit(from.hubIndex);
    return r;
}

int
Topology::hopCount(const Endpoint &from, const Endpoint &to) const
{
    return static_cast<int>(route(from, to).size());
}

std::unique_ptr<Topology>
buildTopology(sim::EventQueue &eq, const TopologyDescription &d,
              const hub::HubConfig &config)
{
    d.validate();
    hub::HubConfig cfg = config;
    if (d.hubPorts > 0)
        cfg.numPorts = d.hubPorts;

    // HUBs then trunks, in declared order: the builder performs
    // exactly the imperative calls a hand-assembled system would, so
    // event traces are identical.
    auto t = std::make_unique<Topology>(eq, cfg);
    for (const HubDecl &h : d.hubs)
        t->addHub(h.name);
    for (const TrunkDecl &tr : d.trunks)
        t->linkHubs(tr.a, tr.pa, tr.b, tr.pb, tr.latency, tr.width);
    return t;
}

} // namespace nectar::topo
