#include "buffer.hh"

#include <algorithm>

#include "invariant.hh"

namespace nectar::sim {

void
PacketView::checkRep() const
{
#ifdef NECTAR_CHECKED
    std::size_t total = 0;
    for (const auto &s : segs_) {
        SIM_INVARIANT(s.buf != nullptr,
                      "PacketView segment references a buffer");
        SIM_INVARIANT(s.buf.use_count() >= 1,
                      "Buffer refcount sanity");
        SIM_INVARIANT(s.len > 0, "PacketView segment is non-empty");
        SIM_INVARIANT(s.off + s.len <= s.buf->size(),
                      "PacketView segment lies inside its buffer");
        total += s.len;
    }
    SIM_INVARIANT(total == size_,
                  "PacketView size equals the sum of its segments");
#endif
}

PacketView
PacketView::slice(std::size_t off, std::size_t len) const
{
    PacketView out;
    out.corrupted_ = corrupted_;
    if (off >= size_)
        return out;
    std::size_t want = std::min(len, size_ - off);

    for (const auto &s : segs_) {
        if (want == 0)
            break;
        if (off >= s.len) {
            off -= s.len;
            continue;
        }
        std::size_t take = std::min(want, s.len - off);
        out.segs_.push_back(Seg{s.buf, s.off + off, take});
        out.size_ += take;
        want -= take;
        off = 0;
    }
    out.checkRep();
    return out;
}

void
PacketView::append(const PacketView &tail)
{
    corrupted_ = corrupted_ || tail.corrupted_;
    for (const auto &s : tail.segs_) {
        if (!segs_.empty()) {
            Seg &last = segs_.back();
            if (last.buf == s.buf && last.off + last.len == s.off) {
                // Adjacent slices of one buffer: coalesce, so
                // chunk-by-chunk reception of a contiguous packet
                // collapses back into a single segment.
                last.len += s.len;
                size_ += s.len;
                continue;
            }
        }
        segs_.push_back(s);
        size_ += s.len;
    }
    checkRep();
}

void
PacketView::read(std::size_t off, std::uint8_t *dst,
                 std::size_t n) const
{
    for (const auto &s : segs_) {
        if (n == 0)
            return;
        if (off >= s.len) {
            off -= s.len;
            continue;
        }
        std::size_t take = std::min(n, s.len - off);
        std::memcpy(dst, s.buf->data() + s.off + off, take);
        dst += take;
        n -= take;
        off = 0;
    }
}

std::vector<std::uint8_t>
PacketView::toVector() const
{
    accountCopy(size_);
    std::vector<std::uint8_t> out;
    out.reserve(size_);
    for (const auto &s : segs_)
        out.insert(out.end(), s.buf->data() + s.off,
                   s.buf->data() + s.off + s.len);
    return out;
}

void
PacketView::copyTo(std::uint8_t *dst) const
{
    accountCopy(size_);
    for (const auto &s : segs_) {
        std::memcpy(dst, s.buf->data() + s.off, s.len);
        dst += s.len;
    }
}

bool
PacketView::equals(const std::vector<std::uint8_t> &bytes) const
{
    if (bytes.size() != size_)
        return false;
    std::size_t i = 0;
    for (const auto &s : segs_) {
        if (std::memcmp(bytes.data() + i, s.buf->data() + s.off,
                        s.len) != 0)
            return false;
        i += s.len;
    }
    return true;
}

} // namespace nectar::sim
