/**
 * @file
 * Nectarine: the Nectar programming interface.
 *
 * Section 6.3: "Nectarine presents the programmer with a simple
 * communication abstraction: applications consist of tasks that
 * communicate by transferring messages between user-specified
 * buffers.  Tasks are processes on any CAB or node.  Messages can be
 * located in any memory.  Using Nectarine, the programmer can create
 * tasks, manage buffers, and send and receive messages.  Nectarine
 * minimizes the number of copy operations and uses DMA whenever
 * possible."
 *
 * Tasks here are CAB-resident kernel threads with a private inbox
 * mailbox; a global name/id directory lets any task address any
 * other.  Buffers are allocations in CAB data memory.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nectarine/system.hh"
#include "sim/coro.hh"

namespace nectar::nectarine {

class Nectarine;

/** Global task identity: (CAB address, per-CAB task index). */
struct TaskId
{
    transport::CabAddress cab = 0;
    std::uint16_t index = 0;

    bool operator==(const TaskId &) const = default;
    auto operator<=>(const TaskId &) const = default;
};

/** Delivery discipline for Nectarine messages. */
enum class Delivery {
    reliable, ///< Byte-stream protocol: acknowledged, retransmitted.
    datagram, ///< Best effort.
};

/**
 * A buffer in CAB data memory, allocated through the kernel.
 * Releases its allocation on destruction (RAII).
 */
class Buffer
{
  public:
    Buffer(cabos::Kernel &kernel, std::uint32_t len);
    ~Buffer();

    Buffer(const Buffer &) = delete;
    Buffer &operator=(const Buffer &) = delete;

    /** CAB data-memory address, 0 if allocation failed. */
    std::uint32_t address() const { return addr; }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(bytes.size());
    }
    bool valid() const { return addr != 0; }

    std::vector<std::uint8_t> &data() { return bytes; }
    const std::vector<std::uint8_t> &data() const { return bytes; }

  private:
    cabos::Kernel &kernel;
    std::uint32_t addr = 0;
    std::vector<std::uint8_t> bytes;
};

/**
 * The execution context handed to each task body.
 */
class TaskContext
{
  public:
    TaskContext(Nectarine &api, TaskId id, CabSite &site,
                cabos::Mailbox &inbox)
        : api(api), _id(id), site(site), inbox(inbox)
    {}

    TaskId id() const { return _id; }
    CabSite &home() { return site; }
    cabos::Kernel &kernel() { return *site.kernel; }
    sim::Tick now() const { return site.kernel->now(); }

    /** Simulated compute on this task's CAB. */
    auto
    compute(sim::Tick cost)
    {
        return site.kernel->compute(cost);
    }

    /** Sleep for simulated time. */
    sim::Task<void> sleepFor(sim::Tick d)
    {
        return site.kernel->sleepFor(d);
    }

    // ----- Messaging ------------------------------------------------

    /**
     * Send a message to another task.  Accepts a PacketView (or a
     * vector, converted implicitly); the bytes are never copied on
     * their way down the stack.
     * @param tag Optional tag (retrievable via receiveTagged).
     */
    sim::Task<bool> send(TaskId to, sim::PacketView msg,
                         Delivery how = Delivery::reliable,
                         std::uint64_t tag = 0);

    /** Send a buffer's contents (gathered by DMA, no extra copy). */
    sim::Task<bool> sendBuffer(TaskId to, const Buffer &buf,
                               Delivery how = Delivery::reliable);

    /** Blocking receive from this task's inbox (FIFO). */
    sim::Task<cabos::Message> receive() { return inbox.get(); }

    /** Blocking tag-matched receive (out-of-order). */
    sim::Task<cabos::Message> receiveTagged(std::uint64_t tag)
    {
        return inbox.getTag(tag);
    }

    /** Non-blocking receive. */
    std::optional<cabos::Message> tryReceive()
    {
        return inbox.tryGet();
    }

    /** Number of messages waiting in the inbox. */
    std::size_t pending() const { return inbox.count(); }

    // ----- RPC ------------------------------------------------------

    /** Remote procedure call to another task's service. */
    sim::Task<std::optional<std::vector<std::uint8_t>>>
    call(TaskId server, std::vector<std::uint8_t> req);

    /** Answer a request received in this task's inbox. */
    void
    reply(const cabos::Message &request,
          std::vector<std::uint8_t> response)
    {
        site.transport->respond(request.tag, std::move(response));
    }

    // ----- Buffers ----------------------------------------------------

    /** Allocate a buffer in this task's CAB data memory. */
    std::unique_ptr<Buffer>
    allocBuffer(std::uint32_t len)
    {
        return std::make_unique<Buffer>(*site.kernel, len);
    }

  private:
    Nectarine &api;
    TaskId _id;
    CabSite &site;
    cabos::Mailbox &inbox;
};

/**
 * The Nectarine runtime over one NectarSystem.
 */
class Nectarine
{
  public:
    explicit Nectarine(NectarSystem &sys) : sys(sys) {}

    using TaskBody = std::function<sim::Task<void>(TaskContext &)>;

    /**
     * Create a task on site @p siteIndex.  The body starts when the
     * event queue runs.
     *
     * @param name Unique task name (looked up with lookup()).
     */
    TaskId createTask(std::size_t siteIndex, const std::string &name,
                      TaskBody body);

    /**
     * Register a task whose body runs outside the CAB — e.g. a node
     * process (Section 6.3: "Tasks are processes on any CAB or
     * node").  Creates the inbox mailbox and the directory entry;
     * the caller is responsible for running the body and calling
     * noteExternalTaskDone() when it finishes.
     */
    TaskId registerExternalTask(std::size_t siteIndex,
                                const std::string &name);

    /** Mark an externally run task as completed. */
    void noteExternalTaskDone() { ++completed; }

    /** Find a task by name. */
    std::optional<TaskId> lookup(const std::string &name) const;

    /** Number of created tasks. */
    std::size_t taskCount() const { return tasks.size(); }

    /** Tasks that have finished their body. */
    int completedTasks() const { return completed; }

    NectarSystem &system() { return sys; }

    /** Inbox mailbox id of a task (transport addressing). */
    static std::uint16_t
    inboxId(std::uint16_t taskIndex)
    {
        return static_cast<std::uint16_t>(taskInboxBase + taskIndex);
    }

    /** Mailbox ids below this are reserved for system use. */
    static constexpr std::uint16_t taskInboxBase = 0x1000;

    /** Site hosting @p id. */
    CabSite &siteOf(TaskId id);

  private:
    friend class TaskContext;

    struct TaskInfo
    {
        std::string name;
        TaskId id;
        std::size_t siteIndex;
    };

    NectarSystem &sys;
    std::map<std::string, TaskId> names;
    std::vector<TaskInfo> tasks;
    std::map<transport::CabAddress, std::uint16_t> nextIndex;
    int completed = 0;
};

} // namespace nectar::nectarine
