/**
 * @file
 * The Nectar transport protocols.
 *
 * Section 6.2.2: "The transport layer is responsible for message
 * transfer between mailboxes on different CABs.  This involves
 * breaking messages into packets, reassembling messages, flow
 * control, and retransmission of lost and damaged packets.  Three
 * protocols have been implemented:
 *
 *  - The datagram protocol has low overhead but does not guarantee
 *    packet delivery ...
 *  - The byte-stream protocol provides reliable communication using
 *    acknowledgments, retransmissions, and a sliding window for flow
 *    control.
 *  - The request-response protocol supports client-server
 *    interactions such as remote procedure calls."
 *
 * All three are implemented here for real: fragments, sequence
 * numbers, cumulative acks, go-back-N retransmission, request
 * retry with response caching.  Packets travel through the simulated
 * HUB network and can be lost or corrupted by fault injection.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cabos/kernel.hh"
#include "datalink/datalink.hh"
#include "sim/component.hh"
#include "sim/coro.hh"
#include "sim/fifo.hh"
#include "transport/directory.hh"
#include "transport/header.hh"
#include "transport/probe.hh"

namespace nectar::transport {

using sim::Tick;
using namespace sim::ticks;

/** Transport tuning. */
struct TransportConfig
{
    /** User payload bytes per packet (header adds 32). */
    std::uint32_t mtu = 896;
    /**
     * Initial go-back-N retransmission timeout; also the fixed
     * timeout when adaptiveRto is off.
     */
    Tick retransmitTimeout = 1 * ms;
    /**
     * Adapt the retransmission timeout per flow from measured
     * round-trip times (Jacobson/Karn: SRTT/RTTVAR estimators,
     * exponential backoff on expiry, no samples from retransmitted
     * packets).
     */
    bool adaptiveRto = true;
    /** Lower clamp for the adaptive retransmission timeout. */
    Tick minRto = 200 * us;
    /** Upper clamp for the (backed-off) retransmission timeout. */
    Tick maxRto = 64 * ms;
    /** Consecutive timeouts before a reliable send fails. */
    int maxRetransmits = 10;
    /** Sliding window, in packets (Section 6.2.2). */
    std::uint32_t windowPackets = 8;
    /** RPC: per-attempt response timeout. */
    Tick requestTimeout = 2 * ms;
    /** RPC: attempts before giving up. */
    int maxRequestAttempts = 4;
    /** Responses cached for duplicate-request suppression. */
    std::size_t responseCacheSize = 128;
    /** Switching discipline used for data packets. */
    datalink::SwitchMode mode = datalink::SwitchMode::packet;
};

/** Transport statistics. */
struct TransportStats
{
    sim::Counter messagesSent;      ///< Application messages sent.
    sim::Counter messagesDelivered; ///< Messages placed in mailboxes.
    sim::Counter packetsSent;
    sim::Counter packetsReceived;
    sim::Counter acksSent;
    sim::Counter acksReceived;
    sim::Counter retransmissions;
    sim::Counter checksumDrops;   ///< Packets failing verification.
    sim::Counter duplicates;      ///< Stream packets already seen.
    sim::Counter outOfOrder;      ///< Stream packets ahead of expected.
    sim::Counter deliveryStalls;  ///< Last fragment unacked: mailbox full.
    sim::Counter datagramsDropped; ///< No mailbox / mailbox full.
    sim::Counter sendFailures;    ///< Reliable sends that gave up.
    sim::Counter requestsSent;
    sim::Counter requestRetries;
    sim::Counter responsesServed;
    sim::Counter requestsFailed;
    sim::Counter cachedResponseHits; ///< Duplicate requests answered
                                     ///< from the response cache.

    // Failure-recovery instrumentation (fault campaigns).
    sim::Counter messagesRecovered; ///< Reliable sends that succeeded
                                    ///< after at least one timeout.
    sim::Counter rtoBackoffs;     ///< Timer expiries doubling the RTO.
    sim::Counter karnSuppressed;  ///< RTT samples discarded because the
                                  ///< acked packet was retransmitted.
    sim::Counter unroutable;      ///< Transmissions with no surviving
                                  ///< route (dropped; sender retries).
    sim::Counter crashDrops;      ///< Packets ignored while crashed.
    sim::Counter flowResyncs;     ///< Receiver flows resynchronized
                                  ///< after a peer reset its epoch.
    sim::Counter staleAcks;       ///< Acks from a previous flow epoch.
    sim::Counter flowEpochBumps;  ///< Sender flows reset to a fresh
                                  ///< epoch (send failure or crash).

    // Reliable-multicast instrumentation.
    sim::Counter mcastSends;        ///< sendReliableMulticast calls.
    sim::Counter mcastHwPackets;    ///< Packets sent once down a
                                    ///< hardware multicast tree.
    sim::Counter mcastUnicastPackets; ///< Per-member fan-out copies.
    sim::Counter mcastFallbacks;    ///< Hardware path unavailable
                                    ///< (no tree / frame too large).
    sim::Counter mcastRealigns;     ///< Member flows reset to a
                                    ///< common sequence origin.
    sim::Counter mcastMemberFailures; ///< Members a multicast send
                                      ///< gave up on.
    sim::SampleStats rttSampleNs; ///< Accepted RTT samples (ticks).
    sim::Histogram recoveryNs;    ///< First-timeout-to-recovery times
                                  ///< of stalled flows (ticks).
    double lastSrtt = 0;          ///< Most recent flow SRTT (ticks).
    double lastRttvar = 0;        ///< Most recent flow RTTVAR (ticks).
    Tick lastRto = 0;             ///< Most recent computed RTO.
};

/**
 * Per-CAB transport instance, running on the CAB ("protocol
 * processing is off-loaded to the CAB", Section 3.1).
 */
class Transport : public sim::Component
{
  public:
    /**
     * @param kernel CAB kernel (mailboxes, threads, costs).
     * @param dl This CAB's datalink.
     * @param directory Shared address/route directory.
     * @param self This CAB's network address.
     * @param config Tuning.
     */
    Transport(cabos::Kernel &kernel, datalink::Datalink &dl,
              NetworkDirectory &directory, CabAddress self,
              const TransportConfig &config = {});

    CabAddress address() const { return self; }
    TransportStats &stats() { return _stats; }
    const TransportConfig &config() const { return cfg; }
    cabos::Kernel &kernel() { return _kernel; }

    /**
     * Attach a delivery probe (send/deliver ledger hooks; see
     * transport/probe.hh).  Pass nullptr to detach.  The probe must
     * outlive the transport or be detached first.
     */
    void setProbe(DeliveryProbe *p) { probe = p; }

    // ----- Datagram protocol ----------------------------------------

    /**
     * Best-effort message send.  Large messages are fragmented; the
     * receiver reassembles and delivers only complete messages.  No
     * retransmission: any lost or damaged fragment loses the message.
     *
     * @return true when the message was transmitted (not delivered).
     */
    sim::Task<bool> sendDatagram(CabAddress dst,
                                 std::uint16_t dstMailbox,
                                 sim::PacketView data);

    // ----- Byte-stream protocol ---------------------------------------

    /**
     * Reliable message send: fragments stream under a sliding window
     * with cumulative acks and go-back-N retransmission; completes
     * when every fragment is acknowledged.
     *
     * Sends to the same (CAB, mailbox) flow are serialized; distinct
     * flows proceed concurrently.
     *
     * @return true once acknowledged; false if the flow failed
     *         (maxRetransmits consecutive timeouts).
     */
    sim::Task<bool> sendReliable(CabAddress dst,
                                 std::uint16_t dstMailbox,
                                 sim::PacketView data);

    // ----- Reliable multicast ------------------------------------------

    /** Outcome of one reliable multicast send. */
    struct MulticastResult
    {
        bool ok = true;          ///< Every member acknowledged.
        bool usedHardware = false; ///< At least one packet travelled
                                   ///< a hardware multicast tree.
        std::vector<CabAddress> failed; ///< Members that never
                                        ///< acknowledged (RTO gave up).
    };

    /**
     * Reliable one-to-many send: @p data goes to @p dstMailbox on
     * every CAB in @p dsts.
     *
     * The members' sender flows are driven in lockstep through a
     * shared sequence space, so each fragment is encoded once and —
     * when the fabric allows and @p allowHardware is set — transmitted
     * once down a hardware multicast tree (Topology::multicastRoute).
     * When no tree survives (partition, or the command list would
     * overflow a packet-switched frame), the same encoded packet fans
     * out as per-member unicasts.  Loss recovery is per member: each
     * member's flow keeps its own RTO/Karn estimator and go-back-N
     * retransmission, and retransmits travel unicast to the lagging
     * member only.
     *
     * Self-addressed members are a programming error (collectives
     * keep the root's contribution local).
     *
     * @return Per-member outcome; failed members' flows are reset to
     *         a fresh epoch (like a failed sendReliable).
     */
    sim::Task<MulticastResult>
    sendReliableMulticast(std::vector<CabAddress> dsts,
                          std::uint16_t dstMailbox,
                          sim::PacketView data,
                          bool allowHardware = true);

    // ----- Request-response protocol -----------------------------------

    /**
     * RPC: send @p req to @p serviceMailbox on @p dst and await the
     * response.  Requests are retried (at-least-once; duplicate
     * requests are answered from the server's response cache, so
     * effectively at-most-once execution for cached responses).
     * Requests and responses must fit one MTU.
     *
     * @return The response payload, or nullopt after
     *         maxRequestAttempts timeouts.
     */
    sim::Task<std::optional<std::vector<std::uint8_t>>>
    request(CabAddress dst, std::uint16_t serviceMailbox,
            sim::PacketView req);

    /**
     * Server side: answer the request whose mailbox Message carried
     * @p requestTag.
     */
    void respond(std::uint64_t requestTag, sim::PacketView response);

    // ----- Fault injection ---------------------------------------------

    /**
     * Crash this CAB's transport: all protocol state is lost, every
     * pending reliable send fails, and arriving packets are ignored
     * until restart().  Mirrors pulling a CAB from its slot.
     */
    void crash();

    /**
     * Restart after crash().  Protocol state starts fresh; the
     * message-id space jumps past everything used before the crash
     * (a boot counter), so peers can distinguish new messages from
     * stale pre-crash duplicates.
     */
    void restart();

    bool alive() const { return _alive; }

  private:
    // ----- Sender-side stream state -----------------------------------

    /** One outstanding (sent, unacknowledged) packet.  Holds a
     *  view of the encoded packet; retransmission re-sends the same
     *  shared bytes. */
    struct Unacked
    {
        std::uint32_t seq = 0;
        sim::PacketView pkt;
        Tick sentAt = 0;           ///< First transmission time.
        bool retransmitted = false; ///< Karn: no RTT sample if set.
    };

    struct SenderFlow
    {
        explicit SenderFlow(sim::EventQueue &eq) : mutex(eq) {}

        std::uint32_t nextSeq = 0; ///< Next fresh sequence number.
        std::uint32_t base = 0;    ///< Oldest unacknowledged seq.
        /** Outstanding packets, oldest first: sequence numbers are
         *  handed out in increasing order, and a reset clears the
         *  queue with the sequence space. */
        sim::Fifo<Unacked> unacked;
        cab::TimerId timer = sim::invalidEventId;
        int timeouts = 0;
        bool failed = false;
        sim::AsyncMutex mutex; ///< One message in flight per flow.
        std::vector<std::coroutine_handle<>> waiters;
        /** Multicast sends watching several flows at once register a
         *  channel here; wakeFlow() signals and clears it. */
        std::vector<sim::Channel<bool> *> watchers;

        // Jacobson/Karn retransmission-timeout estimator.
        double srtt = 0;   ///< Smoothed RTT (ticks).
        double rttvar = 0; ///< RTT variation (ticks).
        bool haveSrtt = false;
        Tick rto = 0; ///< Current timeout; 0 = use the config initial.

        std::uint32_t currentMsgId = 0; ///< Message in flight; acks
                                        ///< from earlier epochs are
                                        ///< stale and ignored.
        bool hadTimeout = false; ///< This message saw >= 1 timeout.
        bool stalled = false;    ///< In a timeout-recovery episode.
        Tick stallStart = 0;     ///< When the episode began.
    };

    struct ReceiverFlow
    {
        std::uint32_t expected = 0;
        bool assembling = false;
        std::uint32_t msgId = 0;
        sim::PacketView assembly; ///< Chained fragment views.
        std::uint32_t highestMsgId = 0; ///< Highest message started;
                                        ///< gates epoch resync.
    };

    /**
     * A reassembly slot for one multi-fragment datagram.  Slots are
     * reused, and their fragment arrays keep their capacity, so a
     * steady stream of datagrams allocates nothing here.
     */
    struct DatagramAssembly
    {
        std::uint64_t key = 0;        ///< (source << 32) | msgId.
        std::uint16_t fragCount = 0;  ///< 0 while the slot is free.
        std::uint16_t received = 0;   ///< Distinct fragments held.
        Tick started = 0;
        /** By fragment index; empty until that fragment arrives. */
        std::vector<std::optional<sim::PacketView>> frags;
    };

    /** The slot assembling @p key, taking a free one if none is. */
    DatagramAssembly &assemblyFor(std::uint64_t key,
                                  std::uint16_t fragCount);

    /** Free @p as for the next datagram, dropping its fragments. */
    static void releaseAssembly(DatagramAssembly &as);

    static std::uint64_t
    flowKey(CabAddress peer, std::uint16_t mb)
    {
        return (static_cast<std::uint64_t>(peer) << 16) | mb;
    }

    SenderFlow &senderFlow(CabAddress peer, std::uint16_t mb);

    /** Charge send-path CPU and hand one packet to the datalink. */
    sim::Task<void> transmitPacket(CabAddress dst,
                                   sim::PacketView packet);

    /**
     * Transmit one packet to several members: once down the hardware
     * multicast tree when possible, per-member unicast otherwise.
     * Sets @p usedHardware when the tree path was taken.
     */
    sim::Task<void>
    transmitMulticastPacket(const std::vector<CabAddress> &dsts,
                            sim::PacketView packet, bool allowHardware,
                            bool &usedHardware);

    /** True when @p route + @p packet fit the switching discipline's
     *  wire-frame limit (packet mode only constrains it). */
    bool frameFits(const topo::Route &route,
                   const sim::PacketView &packet) const;

    /** Park until any of @p flows makes progress (ack, failure). */
    sim::Task<void> multicastWait(
        const std::vector<SenderFlow *> &flows);

    /** Fire-and-forget transmit (acks, retransmissions). */
    void transmitAsync(CabAddress dst, sim::PacketView pkt);

    // Receive path.  Payloads are zero-copy slices of the received
    // packet; reassembly chains them without materializing.
    void handlePacket(sim::PacketView &&packet, bool corrupted);
    /** Process the oldest packet waiting for its receive-path CPU. */
    void processNextPacket();
    void processPacket(const Header &h, sim::PacketView &&payload);
    void handleStreamData(const Header &h, sim::PacketView &&payload);
    void handleAck(const Header &h);
    void handleDatagram(const Header &h, sim::PacketView &&payload);
    void handleRequest(const Header &h, sim::PacketView &&payload);
    void handleResponse(const Header &h, sim::PacketView &&payload);

    /** Deliver a complete message into its destination mailbox. */
    bool deliver(std::uint16_t dstMailbox, sim::PacketView &&msg,
                 std::uint64_t tag);

    /**
     * Acknowledge up to @p nextExpected.  @p epoch is the receiver
     * flow's highest accepted message id; the sender discards acks
     * from an earlier epoch (they describe a flow state that a reset
     * or crash has since discarded).
     */
    void sendAck(const Header &h, std::uint32_t nextExpected,
                 std::uint32_t epoch);

    /** Arm/refresh the flow's retransmission timer. */
    void armTimer(CabAddress peer, std::uint16_t mb, SenderFlow &flow);

    /** Timer expiry: go-back-N retransmission. */
    void onTimeout(CabAddress peer, std::uint16_t mb);

    void wakeFlow(SenderFlow &flow);

    /** Feed one RTT measurement into the flow's Jacobson estimator. */
    void rttSample(SenderFlow &flow, Tick sample);

    /**
     * Fail the pending send and reset the flow to a fresh epoch
     * (sequence numbers restart at zero; the next message id starts
     * the new epoch on the receiver).
     */
    void resetFlow(SenderFlow &flow);

    cabos::Kernel &_kernel;
    datalink::Datalink &dl;
    NetworkDirectory &directory;
    CabAddress self;
    TransportConfig cfg;
    TransportStats _stats;
    DeliveryProbe *probe = nullptr;

    /** A decoded packet waiting for its receive-path CPU charge. */
    struct RxWork
    {
        Header header;
        sim::PacketView payload;
    };
    /** Packets in receive processing.  The CPU completes charged work
     *  in FIFO order, so each completion event pops its own packet
     *  and captures only `this`. */
    sim::Fifo<RxWork> rxWork;

    std::map<std::uint64_t, std::unique_ptr<SenderFlow>> senders;
    std::map<std::uint64_t, ReceiverFlow> receivers;
    std::vector<DatagramAssembly> datagramAsm;

    std::uint32_t nextMsgId = 1;
    bool _alive = true;

    /** Message-id jump applied on restart (the boot counter). */
    static constexpr std::uint32_t msgIdRestartJump = 1u << 16;

    // RPC client state.  A timeout pushes nullopt; a response pushes
    // its (possibly empty) payload.
    std::uint32_t nextRequestSeq = 1;
    std::map<std::uint32_t,
             sim::Channel<std::optional<std::vector<std::uint8_t>>> *>
        pendingRequests;

    // RPC server state.
    struct ServerRequest
    {
        CabAddress client;
        std::uint16_t replyMailbox;
        std::uint32_t seq;
    };
    std::map<std::uint64_t, ServerRequest> pendingServer;
    std::map<std::uint64_t, sim::PacketView> responseCache;
    std::deque<std::uint64_t> responseCacheOrder;
};

} // namespace nectar::transport
