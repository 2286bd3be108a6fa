/**
 * @file
 * Reference-counted immutable buffers and zero-copy packet views.
 *
 * The paper's central performance argument is that the CAB hardware
 * (DMA engines, hardware checksum, mailbox delivery) removes
 * memory-to-memory copies from the protocol path (Sections 5.1 and
 * 6.2).  These types give the simulator the same property: a payload
 * is written into a Buffer once, and every layer boundary passes a
 * PacketView — an offset/length slice, possibly chained across
 * several buffers — instead of copying bytes.
 *
 * Ownership model (see DESIGN.md, "Packet-path ownership"):
 *  - A Buffer is immutable once constructed and shared by reference
 *    count; nobody mutates payload bytes in place.
 *  - Layers *slice* (fragmentation, header removal) and *chain*
 *    (header prepend, reassembly); both are O(segments), copy nothing,
 *    and are uncounted.
 *  - Header-field reads (read(), operator[]) model the protocol
 *    engine reading a register as the bytes stream past; uncounted.
 *  - Materialization (toVector(), copyTo()) is the single point where
 *    bytes are deep-copied — the application boundary, or the CAB
 *    checksum hardware touching bytes — and is charged to
 *    sim::copyStats().
 *
 * A PacketView also carries the fault-injection corruption flag:
 * slicing or chaining a corrupted view yields corrupted views, so
 * damage discovered on one wire chunk taints the packet it lands in.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "small_vector.hh"
#include "stats.hh"

namespace nectar::sim {

class Buffer;

/** Shared ownership of one immutable byte region. */
using BufferRef = std::shared_ptr<const Buffer>;

/**
 * An immutable, reference-counted byte region.  Construct via make();
 * the contents never change afterwards, so any number of views may
 * share it without synchronization or defensive copies.
 */
class Buffer
{
  public:
    explicit Buffer(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    /** Take ownership of @p bytes (moved, not copied). */
    static BufferRef
    make(std::vector<std::uint8_t> bytes)
    {
        accountAlloc();
        return std::make_shared<const Buffer>(std::move(bytes));
    }

    const std::uint8_t *data() const { return bytes_.data(); }
    std::size_t size() const { return bytes_.size(); }

    /** The backing storage (for zero-copy whole-buffer access). */
    const std::vector<std::uint8_t> &storage() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * A cheap view of packet bytes: an ordered chain of (buffer, offset,
 * length) segments.  Copying a PacketView copies segment descriptors
 * and bumps reference counts — never payload bytes.  The first
 * inlineSegments descriptors live inside the view, so a payload or a
 * header chained to its payload is sliced, chained and copied
 * without a heap allocation.
 */
class PacketView
{
  public:
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    /** Segments held without a heap allocation (header + payload). */
    static constexpr std::size_t inlineSegments = 2;

    PacketView() = default;

    /** Wrap @p bytes (moved into a fresh Buffer).  Implicit on
     *  purpose: every legacy call site handing a std::vector to a
     *  send path converts without churn. */
    PacketView(std::vector<std::uint8_t> bytes)
    {
        if (!bytes.empty()) {
            auto buf = Buffer::make(std::move(bytes));
            std::size_t n = buf->size();
            segs_.push_back(Seg{std::move(buf), 0, n});
            size_ = n;
        }
    }

    /** View the whole of @p buf. */
    explicit PacketView(BufferRef buf)
    {
        if (buf && buf->size() > 0) {
            std::size_t n = buf->size();
            segs_.push_back(Seg{std::move(buf), 0, n});
            size_ = n;
        }
    }

    /** View [off, off+len) of @p buf. */
    PacketView(BufferRef buf, std::size_t off, std::size_t len)
    {
        if (buf && len > 0 && off + len <= buf->size()) {
            segs_.push_back(Seg{std::move(buf), off, len});
            size_ = len;
        }
    }

    /** Deep-copy @p n bytes from raw memory (counted). */
    static PacketView
    copyOf(const std::uint8_t *data, std::size_t n)
    {
        accountCopy(n);
        return PacketView(
            std::vector<std::uint8_t>(data, data + n));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Read one byte (a register read; uncounted). */
    std::uint8_t
    operator[](std::size_t i) const
    {
        for (const auto &s : segs_) {
            if (i < s.len)
                return s.buf->data()[s.off + i];
            i -= s.len;
        }
        return 0;
    }

    // ----- Corruption flag (fault injection) ------------------------

    bool corrupted() const { return corrupted_; }

    /** Taint this view; slices and chains inherit the taint. */
    void markCorrupted(bool c = true) { corrupted_ = corrupted_ || c; }

    // ----- Slicing and chaining (zero-copy, uncounted) --------------

    /**
     * The sub-view [off, off+len); len == npos takes the remainder.
     * Out-of-range requests clamp to the view's end.
     */
    PacketView slice(std::size_t off, std::size_t len = npos) const;

    /** Append @p tail's segments after this view's (reassembly,
     *  payload-after-header).  Adjacent slices of the same buffer
     *  coalesce into one segment. */
    void append(const PacketView &tail);

    /** A new view of @p head followed by @p tail (header prepend). */
    static PacketView
    concat(const PacketView &head, const PacketView &tail)
    {
        PacketView out = head;
        out.append(tail);
        return out;
    }

    // ----- Reads ----------------------------------------------------

    /**
     * Copy @p n bytes at @p off into @p dst.  Models the protocol
     * engine reading header fields as the bytes stream past
     * (uncounted); use for fixed-size headers, not bulk payload.
     */
    void read(std::size_t off, std::uint8_t *dst, std::size_t n) const;

    // ----- Materialization (deep copies, counted) -------------------

    /** Copy every byte out into a fresh vector. */
    std::vector<std::uint8_t> toVector() const;

    /** Copy every byte to @p dst (size() bytes). */
    void copyTo(std::uint8_t *dst) const;

    /**
     * Zero-copy escape hatch: when this view is exactly one whole
     * buffer, its backing storage; nullptr otherwise (the caller must
     * materialize).
     */
    const std::vector<std::uint8_t> *
    wholeBuffer() const
    {
        if (segs_.size() == 1 && segs_[0].off == 0 &&
            segs_[0].len == segs_[0].buf->size())
            return &segs_[0].buf->storage();
        return nullptr;
    }

    // ----- Segment iteration (checksum hardware, wire chunking) -----

    std::size_t segmentCount() const { return segs_.size(); }

    /** Call f(const std::uint8_t *, std::size_t) per segment, in
     *  order.  This is how the checksum hardware streams the packet
     *  without materializing it. */
    template <typename F>
    void
    forEachSegment(F &&f) const
    {
        for (const auto &s : segs_)
            f(s.buf->data() + s.off, s.len);
    }

    /** Byte-wise equality with a plain vector (test convenience). */
    bool equals(const std::vector<std::uint8_t> &bytes) const;

  private:
    struct Seg
    {
        BufferRef buf;
        std::size_t off = 0;
        std::size_t len = 0;
    };

    /**
     * Representation invariant, checked under NECTAR_CHECKED after
     * every structural mutation: each segment references a live
     * buffer (refcount sanity), lies inside it, is non-empty, and
     * size_ equals the sum of segment lengths.
     */
    void checkRep() const;

    SmallVector<Seg, inlineSegments> segs_;
    std::size_t size_ = 0;
    bool corrupted_ = false;
};

} // namespace nectar::sim
