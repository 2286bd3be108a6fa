#include "protection.hh"

#include "sim/logging.hh"

namespace nectar::cab {

MemoryProtection::MemoryProtection(std::uint32_t addressSpaceBytes,
                                   std::uint32_t pageBytes, int domains)
    : pageBytes(pageBytes),
      pages((addressSpaceBytes + pageBytes - 1) / pageBytes),
      domains(domains)
{
    if (pageBytes == 0 || addressSpaceBytes == 0)
        sim::fatal("MemoryProtection: zero-sized space or page");
    if (domains < 1 || domains > 256)
        sim::fatal("MemoryProtection: bad domain count");
    tables.resize(domains);
    // The kernel domain starts with full access, as the CAB kernel
    // owns the assignment of protection domains (Section 5.2).
    tables[kernelDomain].fill = permAll;
}

void
MemoryProtection::setPerms(Domain domain, std::uint32_t addr,
                           std::uint32_t len, std::uint8_t perms)
{
    if (!validDomain(domain))
        sim::panic("MemoryProtection::setPerms: bad domain");
    if (len == 0)
        return;
    const std::uint64_t last = lastPage(addr, len);
    if (last >= pages)
        sim::panic("MemoryProtection::setPerms: range out of space");
    DomainPerms &d = tables[domain];
    if (d.table.empty())
        d.table.assign(pages, d.fill);
    for (std::uint32_t p = addr / pageBytes; p <= last; ++p)
        d.table[p] = perms;
}

std::uint8_t
MemoryProtection::pagePerms(Domain domain, std::uint32_t addr) const
{
    if (!validDomain(domain))
        sim::panic("MemoryProtection::pagePerms: bad domain");
    std::uint32_t p = addr / pageBytes;
    if (p >= pages)
        sim::panic("MemoryProtection::pagePerms: address out of space");
    return permsOf(domain, p);
}

bool
MemoryProtection::check(Domain domain, std::uint32_t addr,
                        std::uint32_t len, std::uint8_t need)
{
    if (!validDomain(domain)) {
        _violations.add();
        return false;
    }
    if (len == 0)
        return true;
    const std::uint64_t last = lastPage(addr, len);
    if (last >= pages) {
        _violations.add();
        return false;
    }
    for (std::uint32_t p = addr / pageBytes; p <= last; ++p) {
        if ((permsOf(domain, p) & need) != need) {
            _violations.add();
            return false;
        }
    }
    return true;
}

void
MemoryProtection::clearDomain(Domain domain)
{
    if (!validDomain(domain))
        sim::panic("MemoryProtection::clearDomain: bad domain");
    tables[domain] = DomainPerms{};
}

} // namespace nectar::cab
