/**
 * @file
 * CAB on-board memory: program and data regions, protection checks,
 * bandwidth accounting.
 *
 * Section 5.2: "The on-board CAB memory is split into two regions:
 * one intended for use as program memory, the other as data memory.
 * ... The program memory region contains 128 kilobytes of PROM and
 * 512 kilobytes of RAM.  The data memory region contains 1 megabyte
 * of RAM.  Both memories are implemented using fast (35 nanosecond)
 * static RAM. ... the total bandwidth of the data memory is 66
 * megabytes/second, sufficient to support the following concurrent
 * accesses: CPU reads or writes, DMA to the outgoing fiber, DMA from
 * the incoming fiber, and DMA to or from VME memory."
 *
 * Every access is checked against the protection tables; transfers
 * are accounted so benches can verify the 66 MB/s sufficiency claim.
 *
 * The bytes are held sparsely, in 1 KB pages (the protection page
 * size) that come into being on their first write: the DMA engines
 * only account() their transfers, so almost no page of a simulated
 * CAB is ever touched, and a byte never written reads as 0.
 */

#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cab/protection.hh"
#include "sim/stats.hh"

namespace nectar::cab {

/** CAB address-space layout. */
namespace addrmap {

constexpr std::uint32_t promBase = 0x000000;
constexpr std::uint32_t promSize = 128 * 1024;
constexpr std::uint32_t programRamBase = 0x020000;
constexpr std::uint32_t programRamSize = 512 * 1024;
constexpr std::uint32_t dataRamBase = 0x100000;
constexpr std::uint32_t dataRamSize = 1024 * 1024;
/** Size of the 24-bit-addressable region the CAB occupies on VME. */
constexpr std::uint32_t spaceSize = 0x200000;

} // namespace addrmap

/** Who initiated a memory access (for the bandwidth accounting). */
enum class Accessor { cpu, fiberOutDma, fiberInDma, vmeDma };

/**
 * The CAB's on-board memory with protection and accounting.
 */
class CabMemory
{
  public:
    CabMemory();

    MemoryProtection &protection() { return prot; }
    const MemoryProtection &protection() const { return prot; }

    /**
     * Read [addr, addr+len) into @p out.
     *
     * @return false on a protection violation or unmapped address
     *         (the access does not happen).
     */
    bool read(Domain domain, std::uint32_t addr, std::uint8_t *out,
              std::uint32_t len, Accessor by = Accessor::cpu);

    /** Write @p len bytes at @p addr.  PROM rejects all writes. */
    bool write(Domain domain, std::uint32_t addr,
               const std::uint8_t *src, std::uint32_t len,
               Accessor by = Accessor::cpu);

    /** Factory-program the PROM (bypasses protection; boot only). */
    void loadProm(std::uint32_t offset,
                  const std::vector<std::uint8_t> &image);

    /** True if [addr, addr+len) lies inside a mapped region. */
    bool mapped(std::uint32_t addr, std::uint32_t len) const;

    /** True if [addr, addr+len) lies entirely in data RAM. */
    bool
    inDataRam(std::uint32_t addr, std::uint32_t len) const
    {
        return addr >= addrmap::dataRamBase &&
               addr + len <= addrmap::dataRamBase + addrmap::dataRamSize &&
               addr + len >= addr;
    }

    /** Bytes moved by each accessor (bandwidth accounting). */
    std::uint64_t
    bytesBy(Accessor by) const
    {
        return byteCounts[static_cast<int>(by)].value();
    }

    /**
     * Account a bulk DMA transfer against the memory system without
     * going through read()/write() (used by the DMA engines, whose
     * payloads the simulator moves as shared buffers).
     */
    void
    account(Accessor by, std::uint64_t bytes)
    {
        byteCounts[static_cast<int>(by)].add(bytes);
    }

    /** Total bytes moved through the memory system. */
    std::uint64_t totalBytes() const;

    /** Accesses rejected because the address was unmapped. */
    std::uint64_t busErrors() const { return _busErrors.value(); }

  private:
    static constexpr std::uint32_t pageBytes = sim::proto::cabPageBytes;
    using Page = std::array<std::uint8_t, pageBytes>;

    /** Copy [addr, addr+len) out of the pages; unwritten bytes are 0. */
    void copyOut(std::uint32_t addr, std::uint8_t *out,
                 std::uint32_t len) const;

    /** Copy into [addr, addr+len), creating zeroed pages as needed. */
    void copyIn(std::uint32_t addr, const std::uint8_t *src,
                std::uint32_t len);

    /** Written pages, keyed by CAB address / pageBytes. */
    std::unordered_map<std::uint32_t, Page> pages;
    MemoryProtection prot;
    sim::Counter byteCounts[4];
    sim::Counter _busErrors;
};

} // namespace nectar::cab
