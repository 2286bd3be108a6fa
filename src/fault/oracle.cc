#include "fault/oracle.hh"

#include <sstream>

namespace nectar::fault {

namespace {

std::string
msgName(transport::CabAddress src, transport::CabAddress dst,
        std::uint16_t dstMailbox, std::uint32_t msgId)
{
    std::ostringstream os;
    os << "cab" << src << "->cab" << dst << ".mb" << dstMailbox
       << " msg" << msgId;
    return os.str();
}

} // namespace

void
DeliveryOracle::violate(const std::string &what)
{
    if (_violations.size() < maxViolations)
        _violations.push_back(what);
    else
        ++_dropped;
}

// ----- transport::DeliveryProbe -------------------------------------

void
DeliveryOracle::onReliableSend(transport::CabAddress src,
                               transport::CabAddress dst,
                               std::uint16_t dstMailbox,
                               std::uint32_t msgId, std::size_t)
{
    ++_reliableSends;
    SendRec &rec = sends[key(src, dst, msgId)];
    if (rec.reliable && rec.outcome == Outcome::pending) {
        // The same (src, dst, msgId) can't enter the send path twice:
        // msgId allocation is monotonic per sender.
        violate("duplicate send registration: " +
                msgName(src, dst, dstMailbox, msgId));
        return;
    }
    rec.dstMailbox = dstMailbox;
    rec.reliable = true;
    rec.outcome = Outcome::pending;
}

void
DeliveryOracle::onReliableOutcome(transport::CabAddress src,
                                  transport::CabAddress dst,
                                  std::uint16_t dstMailbox,
                                  std::uint32_t msgId, bool ok)
{
    auto it = sends.find(key(src, dst, msgId));
    if (it == sends.end() || !it->second.reliable) {
        violate("outcome for unknown send: " +
                msgName(src, dst, dstMailbox, msgId));
        return;
    }
    SendRec &rec = it->second;
    if (rec.outcome != Outcome::pending) {
        violate("second outcome for " +
                msgName(src, dst, dstMailbox, msgId));
        return;
    }
    rec.outcome = ok ? Outcome::ok : Outcome::failedSend;
    if (ok && rec.deliveries == 0) {
        // The transport acknowledges only after delivery, so an
        // ok-outcome with no delivery on record is silent loss.
        violate("silent loss: ok-reported send never delivered: " +
                msgName(src, dst, dstMailbox, msgId));
    }
}

void
DeliveryOracle::onDatagramSend(transport::CabAddress src,
                               transport::CabAddress dst,
                               std::uint16_t dstMailbox,
                               std::uint32_t msgId)
{
    ++_datagramSends;
    SendRec &rec = sends[key(src, dst, msgId)];
    rec.dstMailbox = dstMailbox;
    rec.reliable = false;
    rec.outcome = Outcome::ok; // best-effort: no outcome to await
}

void
DeliveryOracle::onDeliver(transport::CabAddress src,
                          transport::CabAddress dst,
                          std::uint16_t dstMailbox,
                          std::uint32_t msgId, bool reliable,
                          std::size_t)
{
    if (reliable)
        ++_reliableDelivered;
    else
        ++_datagramDelivered;

    auto it = sends.find(key(src, dst, msgId));
    if (it == sends.end()) {
        violate("phantom delivery (never sent): " +
                msgName(src, dst, dstMailbox, msgId));
        return;
    }
    SendRec &rec = it->second;
    std::uint32_t epoch = 0;
    auto be = bootEpoch.find(dst);
    if (be != bootEpoch.end())
        epoch = be->second;

    if (rec.deliveries > 0 && rec.deliverEpoch == epoch &&
        rec.epochDeliveries > 0) {
        violate("duplicate delivery (same receiver boot): " +
                msgName(src, dst, dstMailbox, msgId));
    }
    if (rec.deliverEpoch != epoch) {
        rec.deliverEpoch = epoch;
        rec.epochDeliveries = 0;
    }
    ++rec.deliveries;
    ++rec.epochDeliveries;
}

void
DeliveryOracle::onCrash(transport::CabAddress addr)
{
    // A crash wipes the receiver's mailboxes and duplicate-
    // suppression state: deliveries made before it no longer count
    // against the at-most-once budget.
    ++bootEpoch[addr];
}

void
DeliveryOracle::onRestart(transport::CabAddress)
{
}

// ----- collective::CollectiveProbe ----------------------------------

void
DeliveryOracle::onCollectiveStart(collective::GroupId gid, int rank)
{
    ++_collectiveStarts;
    ++openOps[(static_cast<std::uint64_t>(gid) << 32) |
              static_cast<std::uint32_t>(rank)];
}

void
DeliveryOracle::onCollectiveEnd(collective::GroupId gid, int rank,
                                bool ok, std::uint8_t error,
                                std::uint32_t startEpoch,
                                std::uint32_t endEpoch)
{
    ++_collectiveEnds;
    auto k = (static_cast<std::uint64_t>(gid) << 32) |
             static_cast<std::uint32_t>(rank);
    if (--openOps[k] < 0)
        violate("collective end without start: group " +
                std::to_string(gid) + " rank " + std::to_string(rank));

    auto ctx = [&] {
        return "group " + std::to_string(gid) + " rank " +
               std::to_string(rank) + " (error " +
               std::to_string(error) + ")";
    };
    if (ok && error != 0)
        violate("collective ok with error set: " + ctx());
    if (!ok) {
        ++_collectiveFails;
        if (error == 0)
            violate("collective failed without error: " + ctx());
        if (endEpoch < startEpoch)
            violate("collective epoch went backwards: " + ctx());
        // timeout / memberFailed / epochChanged promise the failure
        // was published: the epoch must have moved.
        constexpr std::uint8_t timeout = 1, memberFailed = 2,
                               epochChanged = 3;
        if ((error == timeout || error == memberFailed ||
             error == epochChanged) &&
            endEpoch <= startEpoch)
            violate("collective failure without epoch bump: " + ctx());
    }
}

void
DeliveryOracle::onEpochBump(collective::GroupId gid,
                            std::uint32_t newEpoch)
{
    ++_epochBumps;
    std::uint32_t &last = lastEpoch[gid];
    if (newEpoch <= last)
        violate("non-monotonic epoch bump: group " +
                std::to_string(gid) + " to " +
                std::to_string(newEpoch));
    last = newEpoch;
}

// ----- verdict ------------------------------------------------------

void
DeliveryOracle::finish()
{
    if (finished)
        return;
    finished = true;

    for (const auto &[k, rec] : sends) {
        if (rec.reliable && rec.outcome == Outcome::pending) {
            auto src = static_cast<transport::CabAddress>(k >> 48);
            auto dst =
                static_cast<transport::CabAddress>((k >> 32) & 0xffff);
            auto msgId = static_cast<std::uint32_t>(k & 0xffffffffu);
            violate("wedged: send never resolved: " +
                    msgName(src, dst, rec.dstMailbox, msgId));
        }
    }
    for (const auto &[k, open] : openOps) {
        if (open > 0)
            violate("wedged: collective never terminated: group " +
                    std::to_string(static_cast<std::uint32_t>(k >> 32)) +
                    " rank " +
                    std::to_string(static_cast<std::uint32_t>(k)));
    }
}

std::string
DeliveryOracle::summary() const
{
    std::ostringstream os;
    os << "oracle: reliable " << _reliableDelivered << "/"
       << _reliableSends << " datagram " << _datagramDelivered << "/"
       << _datagramSends << " collectives " << _collectiveEnds << "/"
       << _collectiveStarts << " (failed " << _collectiveFails
       << ") violations "
       << (_violations.size() + static_cast<std::size_t>(_dropped));
    return os.str();
}

} // namespace nectar::fault
