#include "memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace nectar::cab {

CabMemory::CabMemory() : prot(addrmap::spaceSize) {}

bool
CabMemory::mapped(std::uint32_t addr, std::uint32_t len) const
{
    if (addr + len < addr)
        return false;
    auto inside = [&](std::uint32_t base, std::uint32_t size) {
        return addr >= base && addr + len <= base + size;
    };
    return inside(addrmap::promBase, addrmap::promSize) ||
           inside(addrmap::programRamBase, addrmap::programRamSize) ||
           inside(addrmap::dataRamBase, addrmap::dataRamSize);
}

void
CabMemory::copyOut(std::uint32_t addr, std::uint8_t *out,
                   std::uint32_t len) const
{
    while (len > 0) {
        const std::uint32_t off = addr % pageBytes;
        const std::uint32_t n = std::min(len, pageBytes - off);
        auto it = pages.find(addr / pageBytes);
        if (it == pages.end()) {
            std::memset(out, 0, n);
        } else {
            // nectar-lint: copy-ok memory-array hardware model; bytes
            // charged per accessor via byteCounts, not packet payload
            std::memcpy(out, it->second.data() + off, n);
        }
        addr += n;
        out += n;
        len -= n;
    }
}

void
CabMemory::copyIn(std::uint32_t addr, const std::uint8_t *src,
                  std::uint32_t len)
{
    while (len > 0) {
        const std::uint32_t off = addr % pageBytes;
        const std::uint32_t n = std::min(len, pageBytes - off);
        // operator[] value-initialises a new page: all zeroes.
        Page &page = pages[addr / pageBytes];
        // nectar-lint: copy-ok memory-array hardware model; bytes
        // charged per accessor via byteCounts, not packet payload
        std::memcpy(page.data() + off, src, n);
        addr += n;
        src += n;
        len -= n;
    }
}

bool
CabMemory::read(Domain domain, std::uint32_t addr, std::uint8_t *out,
                std::uint32_t len, Accessor by)
{
    if (!mapped(addr, len)) {
        _busErrors.add();
        return false;
    }
    if (!prot.check(domain, addr, len, permRead))
        return false;
    copyOut(addr, out, len);
    byteCounts[static_cast<int>(by)].add(len);
    return true;
}

bool
CabMemory::write(Domain domain, std::uint32_t addr,
                 const std::uint8_t *src, std::uint32_t len,
                 Accessor by)
{
    if (!mapped(addr, len)) {
        _busErrors.add();
        return false;
    }
    // PROM is immutable after factory programming, regardless of the
    // protection tables.
    if (addr < addrmap::promBase + addrmap::promSize) {
        _busErrors.add();
        return false;
    }
    if (!prot.check(domain, addr, len, permWrite))
        return false;
    copyIn(addr, src, len);
    byteCounts[static_cast<int>(by)].add(len);
    return true;
}

void
CabMemory::loadProm(std::uint32_t offset,
                    const std::vector<std::uint8_t> &image)
{
    if (offset + image.size() > addrmap::promSize)
        sim::fatal("CabMemory::loadProm: image does not fit");
    copyIn(addrmap::promBase + offset, image.data(),
           static_cast<std::uint32_t>(image.size()));
}

std::uint64_t
CabMemory::totalBytes() const
{
    std::uint64_t n = 0;
    for (const auto &c : byteCounts)
        n += c.value();
    return n;
}

} // namespace nectar::cab
