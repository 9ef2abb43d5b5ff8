/**
 * @file
 * Non-owning views over one limb of a flat limb-major buffer.
 *
 * RnsPoly stores all limbs contiguously (limb-major, one length-n
 * plane per prime); LimbSpan / ConstLimbSpan are the lens through
 * which callers touch a single plane. They convert implicitly from
 * std::vector<uint64_t> so staging buffers and test vectors flow into
 * the same kernel entry points as polynomial limbs.
 */

#ifndef CINNAMON_RNS_LIMB_SPAN_H_
#define CINNAMON_RNS_LIMB_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace cinnamon::rns {

/** Mutable view of one limb (length-n plane of uint64 residues). */
class LimbSpan
{
  public:
    LimbSpan() : data_(nullptr), size_(0) {}
    LimbSpan(uint64_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    LimbSpan(std::vector<uint64_t> &v) : data_(v.data()), size_(v.size())
    {
    }

    uint64_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint64_t &operator[](std::size_t i) const { return data_[i]; }
    uint64_t *begin() const { return data_; }
    uint64_t *end() const { return data_ + size_; }

  private:
    uint64_t *data_;
    std::size_t size_;
};

/** Read-only view of one limb. */
class ConstLimbSpan
{
  public:
    ConstLimbSpan() : data_(nullptr), size_(0) {}
    ConstLimbSpan(const uint64_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    ConstLimbSpan(const std::vector<uint64_t> &v)
        : data_(v.data()), size_(v.size())
    {
    }
    ConstLimbSpan(LimbSpan s) : data_(s.data()), size_(s.size()) {}

    const uint64_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const uint64_t &operator[](std::size_t i) const { return data_[i]; }
    const uint64_t *begin() const { return data_; }
    const uint64_t *end() const { return data_ + size_; }

  private:
    const uint64_t *data_;
    std::size_t size_;
};

/** Element-wise equality; vectors participate via implicit conversion. */
inline bool
operator==(ConstLimbSpan a, ConstLimbSpan b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            return false;
    }
    return true;
}

inline bool
operator!=(ConstLimbSpan a, ConstLimbSpan b)
{
    return !(a == b);
}

inline std::ostream &
operator<<(std::ostream &os, ConstLimbSpan s)
{
    os << "limb[" << s.size() << "]{";
    const std::size_t shown = s.size() < 8 ? s.size() : 8;
    for (std::size_t i = 0; i < shown; ++i)
        os << (i ? ", " : "") << s[i];
    if (shown < s.size())
        os << ", ...";
    return os << "}";
}

inline std::ostream &
operator<<(std::ostream &os, LimbSpan s)
{
    return os << ConstLimbSpan(s);
}

} // namespace cinnamon::rns

#endif // CINNAMON_RNS_LIMB_SPAN_H_
