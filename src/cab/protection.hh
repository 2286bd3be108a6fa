/**
 * @file
 * CAB memory protection: per-page permissions, multiple domains.
 *
 * Section 5.2: "The CAB's memory protection facility allows each
 * 1 kilobyte page to be protected separately.  Each page of the CAB
 * address space (including the CAB registers and devices) can be
 * assigned any subset of read, write, and execute permissions. ...
 * The memory protection includes hardware support for multiple
 * protection domains, with a separate page protection table for each
 * domain.  Currently the CAB supports 32 protection domains. ...
 * accesses from over the VME bus are assigned to a VME-specific
 * protection domain."
 *
 * Checks run "in parallel with the operation so that no latency is
 * added to memory accesses" — accordingly check() charges no time.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace nectar::cab {

/** Access permission bits. */
enum Perm : std::uint8_t {
    permNone = 0,
    permRead = 1,
    permWrite = 2,
    permExec = 4,
    permRW = permRead | permWrite,
    permAll = permRead | permWrite | permExec,
};

/** Protection domain index. */
using Domain = int;

/** The kernel's domain: full access everywhere by convention. */
constexpr Domain kernelDomain = 0;

/** The domain assigned to accesses arriving over the VME bus. */
constexpr Domain vmeDomain = 31;

/**
 * Per-domain, per-page permission tables over a flat address space.
 */
class MemoryProtection
{
  public:
    /**
     * @param addressSpaceBytes Size of the protected address space.
     * @param pageBytes Page granularity (1 KB on the CAB).
     * @param domains Number of protection domains (32 on the CAB).
     */
    MemoryProtection(std::uint32_t addressSpaceBytes,
                     std::uint32_t pageBytes = sim::proto::cabPageBytes,
                     int domains = sim::proto::cabProtectionDomains);

    int numDomains() const { return domains; }
    std::uint32_t pageSize() const { return pageBytes; }
    std::uint32_t numPages() const { return pages; }

    /**
     * Grant @p perms on every page overlapping [addr, addr+len) to
     * @p domain (replacing the previous permissions of those pages).
     */
    void setPerms(Domain domain, std::uint32_t addr, std::uint32_t len,
                  std::uint8_t perms);

    /** Permissions of the page containing @p addr in @p domain. */
    std::uint8_t pagePerms(Domain domain, std::uint32_t addr) const;

    /**
     * Check an access; counts a violation on failure.
     *
     * @param domain Accessing domain.
     * @param addr Start address.
     * @param len Access length in bytes.
     * @param need Required permission bits.
     * @return true if every touched page grants @p need.
     */
    bool check(Domain domain, std::uint32_t addr, std::uint32_t len,
               std::uint8_t need);

    /** Total failed checks. */
    std::uint64_t violations() const { return _violations.value(); }

    /** Revoke all permissions of @p domain (domain teardown). */
    void clearDomain(Domain domain);

  private:
    /**
     * One domain's permissions.  A domain that was never granted
     * anything has no table: every page reads @c fill (permAll for
     * the kernel, permNone otherwise).  setPerms() builds the table
     * and clearDomain() drops it again.
     */
    struct DomainPerms
    {
        std::uint8_t fill = permNone;
        // nectar-lint: copy-ok per-page permission table, not
        // packet payload; empty until the domain's first grant
        std::vector<std::uint8_t> table;
    };

    bool validDomain(Domain d) const { return d >= 0 && d < domains; }

    /** Last page of [addr, addr+len), len > 0, without wrapping. */
    std::uint64_t
    lastPage(std::uint32_t addr, std::uint32_t len) const
    {
        return (std::uint64_t{addr} + len - 1) / pageBytes;
    }

    /** Permissions of page @p p in a valid @p domain. */
    std::uint8_t
    permsOf(Domain domain, std::uint32_t p) const
    {
        const DomainPerms &d = tables[domain];
        return d.table.empty() ? d.fill : d.table[p];
    }

    std::uint32_t pageBytes;
    std::uint32_t pages;
    int domains;
    std::vector<DomainPerms> tables;
    sim::Counter _violations;
};

} // namespace nectar::cab
