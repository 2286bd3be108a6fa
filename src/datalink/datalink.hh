/**
 * @file
 * The CAB datalink protocol.
 *
 * Section 6.2.1: "The datalink protocol transfers data packets
 * between CABs using HUB commands, manages HUB connections, and
 * recovers from framing errors and lost HUB commands.  The most
 * frequently used simple operations, such as sending a packet to a
 * node in the same HUB cluster, are implemented in hardware as a
 * single HUB command, while more complicated and less frequent
 * operations, such as multicasting and error recovery, are
 * implemented in software."
 *
 * The datalink builds the command packets of Sections 4.2.1-4.2.4
 * (circuit or packet switching, unicast or multicast), waits for
 * open replies where the route requests them, tracks the hop-by-hop
 * ready bit of its HUB port, and on timeout tears the route down with
 * closeAll and retries with backoff — the recovery procedure the
 * paper sketches at the end of Section 4.2.1.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cabos/kernel.hh"
#include "hub/commands.hh"
#include "sim/component.hh"
#include "sim/coro.hh"
#include "topo/topology.hh"

namespace nectar::datalink {

using sim::Tick;
using namespace sim::ticks;

/** Connection discipline for a transfer (Sections 4.2.1 / 4.2.3). */
enum class SwitchMode {
    circuit, ///< Open route first (with reply), then stream data.
    packet,  ///< test-open flow control; data store-and-forwards.
};

/** Datalink tuning. */
struct DatalinkConfig
{
    /** Wait for route-open replies before declaring failure. */
    Tick replyTimeout = 200 * us;
    /** Attempts at establishing a route before giving up. */
    int maxAttempts = 5;
    /** Base backoff between route attempts (scaled by attempt). */
    Tick retryBackoff = 100 * us;
    /** Settle time after recovery, during which stale replies drain. */
    Tick recoverySettle = 50 * us;
    /**
     * Patience with the HUB port's ready signal.  The signal is a
     * single wire item; if the packet it trails (or the signal
     * itself) dies on a dark fiber it will never arrive.  After this
     * long without it the datalink probes the port with an echo,
     * which queues behind its own packet; the signal is presumed lost
     * (and the closeAll-and-retry recovery of Section 4.2.1 runs)
     * only if the echo comes back first, or goes unanswered for
     * maxAttempts times as long.
     */
    Tick readyTimeout = 300 * us;
    /**
     * Largest wire packet (framing + data + trailing commands) that
     * packet switching may emit; bounded by the HUB input queue
     * (Section 4.2.3).
     */
    std::uint32_t maxWirePacketBytes = sim::proto::hubInputQueueBytes;
};

/** Datalink statistics. */
struct DatalinkStats
{
    sim::Counter packetsSent;
    sim::Counter packetsReceived;
    sim::Counter bytesSent;
    sim::Counter routeTimeouts;   ///< Reply timeouts -> recovery.
    sim::Counter readyTimeouts;   ///< Lost ready signals presumed.
    sim::Counter recoveries;      ///< closeAll teardowns issued.
    sim::Counter sendFailures;    ///< Gave up after maxAttempts.
    sim::Counter staleReplies;    ///< Replies nothing waits for.
    sim::Counter corruptPackets;  ///< Received with bad data flag.
};

/**
 * Per-CAB datalink instance.  Runs as interrupt handlers plus
 * coroutines on the CAB ("The datalink code is executed entirely by
 * interrupt handlers and by procedures that are called from transport
 * or application threads", Section 6.2.1).
 */
class Datalink : public sim::Component
{
  public:
    /**
     * @param kernel The CAB kernel (board access, costs, threads).
     * @param config Tuning parameters.
     */
    explicit Datalink(cabos::Kernel &kernel,
                      const DatalinkConfig &config = {});

    cabos::Kernel &kernel() { return _kernel; }
    cab::Cab &board() { return _kernel.board(); }
    DatalinkStats &stats() { return _stats; }
    const DatalinkConfig &config() const { return cfg; }

    /**
     * Receive upcall: invoked with each complete packet's view (a
     * zero-copy chain over the received wire chunks).  The transport
     * layer registers this.
     */
    std::function<void(sim::PacketView &&, bool corrupted)> rxHandler;

    /**
     * Send one data packet along @p route.
     *
     * Packet mode requires the framed packet to fit the HUB input
     * queue; circuit mode streams data of any size once the route is
     * confirmed by the reply.
     *
     * Transmissions from one CAB are serialized (single outgoing
     * fiber); concurrent callers queue on an internal mutex.
     *
     * @return true once the packet has been fully transmitted (and,
     *         in circuit mode, the route was confirmed); false if the
     *         route could not be established in maxAttempts.
     */
    sim::Task<bool> sendPacket(topo::RouteHandle route,
                               phys::Payload payload,
                               SwitchMode mode = SwitchMode::packet);

    /** sendPacket() on a route of the caller's own. */
    sim::Task<bool>
    sendPacket(topo::Route route, phys::Payload payload,
               SwitchMode mode = SwitchMode::packet)
    {
        return sendPacket(
            std::make_shared<const topo::Route>(std::move(route)),
            std::move(payload), mode);
    }

    /**
     * Ask this CAB's HUB for the connection status of one of its
     * ports (the recovery diagnostic of Section 4.2.1).
     *
     * @param hubId The directly attached HUB's id.
     * @param port Port to interrogate.
     * @return The owning input port, hub::noPort if free, or nullopt
     *         on timeout.
     */
    sim::Task<std::optional<int>> queryConnection(std::uint8_t hubId,
                                                  int port);

    /** True when our HUB port can accept a new packet. */
    bool hubReady() const { return _hubReady; }

  private:
    /** One route-establishment + transmit attempt. */
    sim::Task<bool> attemptSend(const topo::Route &route,
                                const phys::Payload &payload,
                                SwitchMode mode);

    /** Tear down whatever part of the route was built, then settle. */
    sim::Task<void> recoverRoute();

    /**
     * Suspend until the HUB port is ready for a new packet.
     * @param hubId The attached HUB, which answers the probe.
     * @return false if the ready signal was presumed lost.
     */
    sim::Task<bool> waitHubReady(std::uint8_t hubId);

    /**
     * Wait for @p need replies (or timeout).
     * @return true if all replies arrived with success status.
     */
    sim::Task<bool> waitReplies(int need);

    /** Build the wire items of a whole packet-switched frame into
     *  @ref frame. */
    void buildPacketFrame(const topo::Route &route,
                          const phys::Payload &payload);

    /** DMA @ref frame onto the fiber and await its completion. */
    sim::Task<void> dmaSendAwait();

    // Hardware interrupt handlers.
    void handlePacketStart();
    void handlePacketComplete(sim::PacketView &&packet,
                              bool corrupted);
    void handleReply(const phys::ReplyWord &reply);
    void handleReadySignal();

    cabos::Kernel &_kernel;
    DatalinkConfig cfg;
    DatalinkStats _stats;

    sim::AsyncMutex txMutex;

    /** The frame being transmitted.  Transmissions hold txMutex, so
     *  one buffer serves them all and keeps its capacity. */
    std::vector<phys::WireItem> frame;

    // Reply-waiting state: a fresh channel per wait; stale replies
    // arriving outside a wait (or during settle) are discarded.
    struct ReplyWait
    {
        int need = 0;
        int got = 0;
        bool failed = false;
        sim::Channel<bool> *signal = nullptr;
    };
    ReplyWait replyWait;

    // Hop-by-hop flow control toward our HUB port.
    bool _hubReady = true;
    std::vector<sim::Channel<bool> *> readyWaiters;

    /** Wake every ready waiter: the signal or a probe answer came. */
    void wakeReadyWaiters(bool ready);

    // The outstanding ready probe: an echo to `probeHub` carrying
    // `probeTag`; a new probe takes the next tag, so an answer to an
    // older one is stale.
    std::uint8_t probeHub = 0;
    std::uint8_t probeTag = 0;
    bool probeOutstanding = false;
    bool probeAnswered = false;

    // The one outstanding status query: only a reply with its op, HUB
    // and port answers it.
    struct Query
    {
        std::uint8_t op = 0;
        std::uint8_t hubId = 0;
        std::uint8_t param = 0;
        sim::Channel<int> *answer = nullptr;
    };
    Query query;
};

} // namespace nectar::datalink
