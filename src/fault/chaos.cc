#include "chaos.hh"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "sim/logging.hh"

namespace nectar::fault {

const char *
actionName(Action a)
{
    switch (a) {
      case Action::hubLinkDown: return "hubLinkDown";
      case Action::hubLinkUp: return "hubLinkUp";
      case Action::cabLinkDown: return "cabLinkDown";
      case Action::cabLinkUp: return "cabLinkUp";
      case Action::burstStart: return "burstStart";
      case Action::burstEnd: return "burstEnd";
      case Action::hubPortStuck: return "hubPortStuck";
      case Action::hubPortRestore: return "hubPortRestore";
      case Action::cabCrash: return "cabCrash";
      case Action::cabRestart: return "cabRestart";
    }
    return "?";
}

namespace {

const char *
dirName(Direction d)
{
    switch (d) {
      case Direction::toHub: return "toHub";
      case Direction::fromHub: return "fromHub";
      case Direction::both: return "both";
    }
    return "?";
}

std::string
describe(const FaultEvent &e)
{
    std::ostringstream os;
    os << actionName(e.action);
    switch (e.action) {
      case Action::hubLinkDown:
      case Action::hubLinkUp:
      case Action::hubPortStuck:
      case Action::hubPortRestore:
        os << " hub" << e.hub << ".p" << e.port;
        break;
      case Action::burstStart:
      case Action::burstEnd:
        os << " site" << e.site << " " << dirName(e.dir);
        break;
      case Action::cabLinkDown:
      case Action::cabLinkUp:
      case Action::cabCrash:
      case Action::cabRestart:
        os << " site" << e.site;
        break;
    }
    return os.str();
}

} // namespace

ChaosController::ChaosController(nectarine::NectarSystem &system,
                                 const FaultPlan &faultPlan,
                                 PlanPolicy policy)
    : sys(system), plan(faultPlan)
{
    for (const auto &e : plan.events)
        validate(e);
    checkStateMachines(policy);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        sys.eventq().schedule(
            plan.events[i].at,
            [this, i] { execute(plan.events[i], i); },
            sim::EventPriority::first);
    }
}

void
ChaosController::checkStateMachines(PlanPolicy policy)
{
    // Walk events in execution order — by time, plan order breaking
    // ties (the event queue is FIFO within one tick and priority) —
    // and track each target's state.  An event that contradicts the
    // state (down-while-down, overlapping burst windows on one fiber,
    // restore-without-fault, ...) is fatal under strict, dropped
    // under normalize.
    std::vector<std::size_t> order(plan.events.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return plan.events[a].at < plan.events[b].at;
                     });

    std::map<std::pair<int, int>, bool> hubLinkDown, portStuck;
    std::map<int, bool> cabDown, cabCrashed;
    // Per-site burst state, one flag per attachment fiber.
    std::map<int, std::array<bool, 2>> bursting; // [toHub, fromHub]

    std::vector<char> drop(plan.events.size(), 0);
    for (std::size_t i : order) {
        const FaultEvent &e = plan.events[i];
        const char *why = nullptr;
        switch (e.action) {
          case Action::hubLinkDown: {
            bool &down = hubLinkDown[{e.hub, e.port}];
            if (down)
                why = "link already down";
            else
                down = true;
            break;
          }
          case Action::hubLinkUp: {
            bool &down = hubLinkDown[{e.hub, e.port}];
            if (!down)
                why = "link not down";
            else
                down = false;
            break;
          }
          case Action::cabLinkDown: {
            bool &down = cabDown[e.site];
            if (down)
                why = "attachment already down";
            else
                down = true;
            break;
          }
          case Action::cabLinkUp: {
            bool &down = cabDown[e.site];
            if (!down)
                why = "attachment not down";
            else
                down = false;
            break;
          }
          case Action::burstStart: {
            auto &b = bursting[e.site];
            bool toHub = e.dir != Direction::fromHub;
            bool fromHub = e.dir != Direction::toHub;
            if ((toHub && b[0]) || (fromHub && b[1])) {
                why = "overlapping burst window";
            } else {
                if (toHub)
                    b[0] = true;
                if (fromHub)
                    b[1] = true;
            }
            break;
          }
          case Action::burstEnd: {
            auto &b = bursting[e.site];
            bool toHub = e.dir != Direction::fromHub;
            bool fromHub = e.dir != Direction::toHub;
            if ((toHub && !b[0]) || (fromHub && !b[1])) {
                why = "no burst window open";
            } else {
                if (toHub)
                    b[0] = false;
                if (fromHub)
                    b[1] = false;
            }
            break;
          }
          case Action::hubPortStuck: {
            bool &stuck = portStuck[{e.hub, e.port}];
            if (stuck)
                why = "port already stuck";
            else
                stuck = true;
            break;
          }
          case Action::hubPortRestore: {
            bool &stuck = portStuck[{e.hub, e.port}];
            if (!stuck)
                why = "port not stuck";
            else
                stuck = false;
            break;
          }
          case Action::cabCrash: {
            bool &crashed = cabCrashed[e.site];
            if (crashed)
                why = "CAB already crashed";
            else
                crashed = true;
            break;
          }
          case Action::cabRestart: {
            bool &crashed = cabCrashed[e.site];
            if (!crashed)
                why = "CAB not crashed";
            else
                crashed = false;
            break;
          }
        }
        if (!why)
            continue;
        if (policy == PlanPolicy::strict)
            sim::fatal("FaultPlan '" + plan.name + "': " + why +
                       " at [" + std::to_string(e.at) + "] " +
                       describe(e));
        drop[i] = 1;
    }

    std::vector<FaultEvent> kept;
    kept.reserve(plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        if (drop[i])
            ++dropped;
        else
            kept.push_back(plan.events[i]);
    }
    plan.events = std::move(kept);
}

void
ChaosController::validate(const FaultEvent &e) const
{
    auto needHub = [&] {
        if (e.hub < 0 || e.hub >= sys.topo().numHubs())
            sim::fatal("FaultPlan '" + plan.name + "': bad hub in " +
                       describe(e));
    };
    auto needSite = [&] {
        if (e.site < 0 ||
            e.site >= static_cast<int>(sys.siteCount()))
            sim::fatal("FaultPlan '" + plan.name + "': bad site in " +
                       describe(e));
    };
    switch (e.action) {
      case Action::hubLinkDown:
      case Action::hubLinkUp:
        needHub();
        sys.topo().linkIsUp(e.hub, e.port); // fatal if no link there
        break;
      case Action::hubPortStuck:
      case Action::hubPortRestore:
        needHub();
        sys.topo().hubAt(e.hub).port(e.port); // fatal if out of range
        break;
      case Action::cabLinkDown:
      case Action::cabLinkUp:
      case Action::burstStart:
      case Action::burstEnd:
      case Action::cabCrash:
      case Action::cabRestart:
        needSite();
        break;
    }
}

std::vector<phys::FiberLink *>
ChaosController::siteFibers(int site, Direction dir) const
{
    const auto &at = sys.site(site).at;
    const auto &pair = sys.topo().endpointFibers(at.hubIndex, at.port);
    std::vector<phys::FiberLink *> fibers;
    if (dir == Direction::toHub || dir == Direction::both)
        fibers.push_back(pair.forward);
    if (dir == Direction::fromHub || dir == Direction::both)
        fibers.push_back(pair.reverse);
    return fibers;
}

std::uint64_t
ChaosController::eventSeed(std::size_t index) const
{
    // splitmix64 of (seed, index): decorrelates per-event streams
    // while staying a pure function of the plan.
    std::uint64_t z = plan.seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
ChaosController::execute(const FaultEvent &e, std::size_t index)
{
    switch (e.action) {
      case Action::hubLinkDown:
        sys.topo().markLinkDown(e.hub, e.port);
        break;
      case Action::hubLinkUp:
        sys.topo().markLinkUp(e.hub, e.port);
        break;
      case Action::cabLinkDown:
        for (auto *f : siteFibers(e.site, Direction::both))
            f->setLinkUp(false);
        break;
      case Action::cabLinkUp: {
        for (auto *f : siteFibers(e.site, Direction::both))
            f->setLinkUp(true);
        // Reattaching re-arms the HUB port's flow control: any ready
        // signal owed across the dead link is gone, and the CAB-side
        // queue it reported on was emptied by the outage.
        const auto &at = sys.site(e.site).at;
        sys.topo().hubAt(at.hubIndex).port(at.port).setReady(true);
        break;
      }
      case Action::burstStart: {
        std::uint64_t sub = 0;
        for (auto *f : siteFibers(e.site, e.dir))
            f->setBurstModel(e.burst, eventSeed(index) + sub++);
        break;
      }
      case Action::burstEnd:
        for (auto *f : siteFibers(e.site, e.dir))
            f->clearBurstModel();
        break;
      case Action::hubPortStuck: {
        auto &port = sys.topo().hubAt(e.hub).port(e.port);
        port.setEnabled(false);
        port.flushQueue();
        break;
      }
      case Action::hubPortRestore: {
        // Supervisor-style revival (svResetPort + svEnablePort): the
        // port re-enables with fresh flow-control state — ready
        // signals swallowed while it was stuck are not coming back.
        auto &port = sys.topo().hubAt(e.hub).port(e.port);
        port.setEnabled(true);
        port.setReady(true);
        break;
      }
      case Action::cabCrash:
        sys.site(e.site).transport->crash();
        break;
      case Action::cabRestart:
        sys.site(e.site).transport->restart();
        break;
    }
    ++executed;
    log.push_back({e.at, describe(e)});
}

CampaignReport
ChaosController::report() const
{
    CampaignReport r;
    r.name = plan.name;
    r.seed = plan.seed;
    r.log = log;
    r.planEventsDropped = dropped;

    sim::Histogram recovery;
    for (std::size_t i = 0; i < sys.siteCount(); ++i) {
        const auto &st = sys.site(i).transport->stats();
        r.messagesSent += st.messagesSent.value();
        r.messagesDelivered += st.messagesDelivered.value();
        r.sendFailures += st.sendFailures.value();
        r.messagesRecovered += st.messagesRecovered.value();
        r.retransmissions += st.retransmissions.value();
        r.rtoBackoffs += st.rtoBackoffs.value();
        r.karnSuppressed += st.karnSuppressed.value();
        r.flowResyncs += st.flowResyncs.value();
        r.staleAcks += st.staleAcks.value();
        r.flowEpochBumps += st.flowEpochBumps.value();
        r.mcastMemberFailures += st.mcastMemberFailures.value();
        r.unroutable += st.unroutable.value();
        r.crashDrops += st.crashDrops.value();
        recovery.merge(st.recoveryNs);
        r.readyTimeouts +=
            sys.site(i).datalink->stats().readyTimeouts.value();
    }
    for (int h = 0; h < sys.topo().numHubs(); ++h) {
        const auto &hs = sys.topo().hubAt(h).stats();
        r.stuckDrops += hs.stuckDrops.value();
        r.readyRearms += hs.readyRearms.value();
    }
    r.reroutes = sys.directory().reroutes();
    for (const auto &link : sys.topo().wiring().allLinks()) {
        r.burstDrops += link->itemsDroppedBurst();
        r.downDrops += link->itemsDroppedDown();
    }
    r.recoveries = recovery.count();
    if (r.recoveries) {
        r.recoveryP50 = recovery.percentile(50.0);
        r.recoveryP99 = recovery.percentile(99.0);
    }
    return r;
}

} // namespace nectar::fault
