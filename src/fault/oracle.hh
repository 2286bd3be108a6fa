/**
 * @file
 * DeliveryOracle: end-to-end correctness checking for chaos fuzzing.
 *
 * The oracle is a global send/deliver ledger implementing the
 * transport DeliveryProbe and the collectives CollectiveProbe, so one
 * object observes every reliable and datagram message and every
 * collective operation across the whole system.  It checks:
 *
 *  - **No phantom deliveries**: every delivered (src, dst, msgId) was
 *    sent.
 *  - **No duplicates**: a reliable message reaches a destination at
 *    most once per receiver *boot epoch* (a CAB crash wipes the
 *    receiver's duplicate-suppression state together with the mailbox
 *    holding the first copy, so one redelivery after a crash is the
 *    protocol working as designed — a second within one boot is not).
 *  - **No silent loss for acked traffic**: a reliable send reported
 *    ok was delivered.  A send reported *failed* may have delivered
 *    zero or one time — the final ack may be what was lost — which is
 *    exactly the at-most-once ambiguity the paper's protocol admits.
 *  - **Collectives terminate cleanly**: every started operation ends;
 *    a failed operation carries an error, and a failure blamed on a
 *    peer (timeout / memberFailed / epochChanged) shows the group
 *    epoch advanced past the operation's start.  Epoch bumps are
 *    strictly monotonic.
 *  - **Quiescence (wedge detection)**: at finish() — called after the
 *    run's drain deadline, once every fault has healed — no reliable
 *    send is still awaiting its outcome and no collective is still
 *    open.  A violation here means something wedged.
 *
 * RPC traffic is not checked: request retry is at-least-once by
 * design.  All bookkeeping uses ordered containers keyed by integers,
 * so violation order is deterministic.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "collectives/group.hh"
#include "transport/probe.hh"

namespace nectar::fault {

/** The global ledger; attach via NectarSystem::attachDeliveryProbe
 *  and GroupDirectory::setProbe. */
class DeliveryOracle : public transport::DeliveryProbe,
                       public collective::CollectiveProbe
{
  public:
    DeliveryOracle() = default;

    // ----- transport::DeliveryProbe ---------------------------------
    void onReliableSend(transport::CabAddress src,
                        transport::CabAddress dst,
                        std::uint16_t dstMailbox, std::uint32_t msgId,
                        std::size_t bytes) override;
    void onReliableOutcome(transport::CabAddress src,
                           transport::CabAddress dst,
                           std::uint16_t dstMailbox,
                           std::uint32_t msgId, bool ok) override;
    void onDatagramSend(transport::CabAddress src,
                        transport::CabAddress dst,
                        std::uint16_t dstMailbox,
                        std::uint32_t msgId) override;
    void onDeliver(transport::CabAddress src,
                   transport::CabAddress dst, std::uint16_t dstMailbox,
                   std::uint32_t msgId, bool reliable,
                   std::size_t bytes) override;
    void onCrash(transport::CabAddress addr) override;
    void onRestart(transport::CabAddress addr) override;

    // ----- collective::CollectiveProbe ------------------------------
    void onCollectiveStart(collective::GroupId gid, int rank) override;
    void onCollectiveEnd(collective::GroupId gid, int rank, bool ok,
                         std::uint8_t error, std::uint32_t startEpoch,
                         std::uint32_t endEpoch) override;
    void onEpochBump(collective::GroupId gid,
                     std::uint32_t newEpoch) override;

    // ----- verdict --------------------------------------------------

    /**
     * End-of-run checks (call after the drain deadline): reliable
     * sends without an outcome and collectives without an end are
     * wedge violations.
     */
    void finish();

    bool failed() const { return !_violations.empty(); }

    /** Deterministic violation list (capped; see droppedViolations). */
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

    /** Violations beyond the storage cap. */
    std::uint64_t droppedViolations() const { return _dropped; }

    /** One-line accounting summary. */
    std::string summary() const;

    // Accounting (test/driver observability).
    std::uint64_t reliableSends() const { return _reliableSends; }
    std::uint64_t reliableDeliveries() const { return _reliableDelivered; }
    std::uint64_t datagramSends() const { return _datagramSends; }
    std::uint64_t datagramDeliveries() const { return _datagramDelivered; }
    std::uint64_t collectiveOps() const { return _collectiveStarts; }
    std::uint64_t collectiveFailures() const { return _collectiveFails; }
    std::uint64_t groupEpochBumps() const { return _epochBumps; }

  private:
    void violate(const std::string &what);

    /** (src, dst, msgId) packed: 16 + 16 + 32 bits. */
    static std::uint64_t key(transport::CabAddress src,
                             transport::CabAddress dst,
                             std::uint32_t msgId)
    {
        return (static_cast<std::uint64_t>(src) << 48) |
               (static_cast<std::uint64_t>(dst) << 32) | msgId;
    }

    enum class Outcome : std::uint8_t { pending, ok, failedSend };

    struct SendRec
    {
        std::uint16_t dstMailbox = 0;
        bool reliable = false;
        Outcome outcome = Outcome::pending; // datagrams: never pending
        std::uint32_t deliveries = 0;       // total
        std::uint32_t epochDeliveries = 0;  // in deliverEpoch
        std::uint32_t deliverEpoch = 0;     // receiver boot epoch
    };

    std::map<std::uint64_t, SendRec> sends;
    std::map<transport::CabAddress, std::uint32_t> bootEpoch;

    /** Open operation count per (gid << 32 | rank). */
    std::map<std::uint64_t, std::int64_t> openOps;
    std::map<collective::GroupId, std::uint32_t> lastEpoch;

    std::vector<std::string> _violations;
    std::uint64_t _dropped = 0;
    static constexpr std::size_t maxViolations = 32;

    std::uint64_t _reliableSends = 0, _reliableDelivered = 0;
    std::uint64_t _datagramSends = 0, _datagramDelivered = 0;
    std::uint64_t _collectiveStarts = 0, _collectiveEnds = 0;
    std::uint64_t _collectiveFails = 0;
    std::uint64_t _epochBumps = 0;
    bool finished = false;
};

} // namespace nectar::fault
