#include "collectives/group.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nectar::collective {

GroupId
GroupDirectory::create(const std::string &name)
{
    GroupId gid = nextId++;
    GroupInfo info;
    info.id = gid;
    info.name = name;
    groups.emplace(gid, std::move(info));
    return gid;
}

GroupId
GroupDirectory::create(const std::string &name,
                       const std::vector<nectarine::TaskId> &members)
{
    GroupId gid = create(name);
    for (const auto &m : members)
        join(gid, m);
    return gid;
}

void
GroupDirectory::join(GroupId gid, nectarine::TaskId member)
{
    GroupInfo &g = mutableInfo(gid);
    if (!g.alive)
        sim::fatal("GroupDirectory: join on destroyed group " +
                   std::to_string(gid));
    for (const auto &m : g.members) {
        if (m == member)
            sim::fatal("GroupDirectory: task joined group " +
                       std::to_string(gid) + " twice");
        if (m.cab == member.cab)
            sim::fatal("GroupDirectory: two members of group " +
                       std::to_string(gid) + " on CAB " +
                       std::to_string(member.cab) +
                       " would share its group mailbox");
    }
    // Rank order is the sorted TaskId order regardless of join order.
    g.members.insert(std::upper_bound(g.members.begin(),
                                      g.members.end(), member),
                     member);
}

void
GroupDirectory::destroy(GroupId gid)
{
    mutableInfo(gid).alive = false;
}

const GroupInfo &
GroupDirectory::info(GroupId gid) const
{
    auto it = groups.find(gid);
    if (it == groups.end())
        sim::fatal("GroupDirectory: unknown group " +
                   std::to_string(gid));
    return it->second;
}

GroupInfo &
GroupDirectory::mutableInfo(GroupId gid)
{
    return const_cast<GroupInfo &>(info(gid));
}

std::optional<GroupId>
GroupDirectory::lookup(const std::string &name) const
{
    for (const auto &[gid, g] : groups)
        if (g.name == name)
            return gid;
    return std::nullopt;
}

int
GroupDirectory::rankOf(GroupId gid, nectarine::TaskId member) const
{
    const auto &ms = info(gid).members;
    auto it = std::find(ms.begin(), ms.end(), member);
    if (it == ms.end())
        return -1;
    return static_cast<int>(it - ms.begin());
}

std::uint32_t
GroupDirectory::epoch(GroupId gid) const
{
    return info(gid).epoch;
}

bool
GroupDirectory::reportFailure(GroupId gid, std::uint32_t fromEpoch,
                              std::optional<nectarine::TaskId> suspect)
{
    GroupInfo &g = mutableInfo(gid);
    if (g.epoch != fromEpoch)
        return false; // another survivor already bumped it
    ++g.epoch;
    _epochBumps.add();
    if (_probe)
        _probe->onEpochBump(gid, g.epoch);
    if (suspect &&
        std::find(g.suspects.begin(), g.suspects.end(), *suspect) ==
            g.suspects.end())
        g.suspects.push_back(*suspect);
    return true;
}

} // namespace nectar::collective
