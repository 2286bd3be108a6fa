#include "nectarine.hh"

#include "sim/logging.hh"

namespace nectar::nectarine {

Buffer::Buffer(cabos::Kernel &kernel, std::uint32_t len)
    : kernel(kernel), bytes(len, 0)
{
    auto a = kernel.allocator().allocate(std::max<std::uint32_t>(len, 1));
    addr = a.value_or(0);
    if (!a)
        sim::warn("Buffer: CAB data memory exhausted");
}

Buffer::~Buffer()
{
    if (addr != 0)
        kernel.allocator().release(addr);
}

TaskId
Nectarine::createTask(std::size_t siteIndex, const std::string &name,
                      TaskBody body)
{
    if (names.count(name))
        sim::fatal("Nectarine: duplicate task name: " + name);
    CabSite &site = sys.site(siteIndex);

    std::uint16_t index = nextIndex[site.address]++;
    TaskId id{site.address, index};
    names.emplace(name, id);
    tasks.push_back(TaskInfo{name, id, siteIndex});

    auto &inbox = site.kernel->createMailbox(
        name + ".inbox", 256 * 1024, inboxId(index));

    // The task runs as a CAB kernel thread with its context owned by
    // the coroutine wrapper.
    site.kernel->spawnThread(
        name,
        [](Nectarine &api, TaskId id, CabSite &site,
           cabos::Mailbox &inbox, TaskBody body) -> sim::Task<void> {
            TaskContext ctx(api, id, site, inbox);
            co_await body(ctx);
            ++api.completed;
        }(*this, id, site, inbox, std::move(body)));
    return id;
}

TaskId
Nectarine::registerExternalTask(std::size_t siteIndex,
                                const std::string &name)
{
    if (names.count(name))
        sim::fatal("Nectarine: duplicate task name: " + name);
    CabSite &site = sys.site(siteIndex);
    std::uint16_t index = nextIndex[site.address]++;
    TaskId id{site.address, index};
    names.emplace(name, id);
    tasks.push_back(TaskInfo{name, id, siteIndex});
    site.kernel->createMailbox(name + ".inbox", 256 * 1024,
                               inboxId(index));
    return id;
}

std::optional<TaskId>
Nectarine::lookup(const std::string &name) const
{
    auto it = names.find(name);
    if (it == names.end())
        return std::nullopt;
    return it->second;
}

CabSite &
Nectarine::siteOf(TaskId id)
{
    for (std::size_t i = 0; i < sys.siteCount(); ++i) {
        if (sys.site(i).address == id.cab)
            return sys.site(i);
    }
    sim::fatal("Nectarine: unknown CAB address in TaskId");
}

sim::Task<bool>
TaskContext::send(TaskId to, sim::PacketView msg,
                  Delivery how, std::uint64_t tag)
{
    (void)tag; // the receiver sees msgId as the tag for streams
    std::uint16_t dst_box = Nectarine::inboxId(to.index);
    if (how == Delivery::reliable) {
        co_return co_await site.transport->sendReliable(
            to.cab, dst_box, std::move(msg));
    }
    co_return co_await site.transport->sendDatagram(to.cab, dst_box,
                                                    std::move(msg));
}

sim::Task<bool>
TaskContext::sendBuffer(TaskId to, const Buffer &buf, Delivery how)
{
    // The DMA controller gathers directly from the buffer's CAB
    // memory (Section 6.2.1); no intermediate copy is charged.
    co_return co_await send(to, buf.data(), how);
}

sim::Task<std::optional<std::vector<std::uint8_t>>>
TaskContext::call(TaskId server, std::vector<std::uint8_t> req)
{
    co_return co_await site.transport->request(
        server.cab, Nectarine::inboxId(server.index), std::move(req));
}

} // namespace nectar::nectarine
