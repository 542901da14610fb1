#include "backing_store.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace edm {
namespace mem {

const std::uint8_t *
BackingStore::peek(std::uint64_t addr) const
{
    auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end())
        return nullptr;
    return it->second.data() + (addr % kPageBytes);
}

std::uint8_t *
BackingStore::touch(std::uint64_t addr)
{
    auto &page = pages_[addr / kPageBytes];
    return page.data() + (addr % kPageBytes);
}

std::vector<std::uint8_t>
BackingStore::read(std::uint64_t addr, Bytes len) const
{
    std::vector<std::uint8_t> out(len, 0);
    for (Bytes i = 0; i < len;) {
        const std::uint64_t a = addr + i;
        const std::uint64_t in_page = kPageBytes - (a % kPageBytes);
        const Bytes n = std::min<Bytes>(len - i, in_page);
        if (const std::uint8_t *p = peek(a))
            std::memcpy(out.data() + i, p, n);
        i += n;
    }
    return out;
}

void
BackingStore::write(std::uint64_t addr, const std::vector<std::uint8_t> &data)
{
    for (Bytes i = 0; i < data.size();) {
        const std::uint64_t a = addr + i;
        const std::uint64_t in_page = kPageBytes - (a % kPageBytes);
        const Bytes n = std::min<Bytes>(data.size() - i, in_page);
        std::memcpy(touch(a), data.data() + i, n);
        i += n;
    }
}

std::uint64_t
BackingStore::read64(std::uint64_t addr) const
{
    const auto bytes = read(addr, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return v;
}

void
BackingStore::write64(std::uint64_t addr, std::uint64_t value)
{
    std::vector<std::uint8_t> bytes(8);
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    write(addr, bytes);
}

void
BackingStore::syncFrom(const BackingStore &other)
{
    for (const auto &[page_no, page] : other.pages_)
        pages_[page_no] = page;
}

RmwResult
BackingStore::rmw(RmwOp op, std::uint64_t addr,
                  std::uint64_t arg0, std::uint64_t arg1)
{
    const std::uint64_t old = read64(addr);
    RmwResult result{old, true};
    switch (op) {
      case RmwOp::CompareAndSwap:
        if (old == arg0) {
            write64(addr, arg1);
            result.swapped = true;
        } else {
            result.swapped = false;
        }
        break;
      case RmwOp::FetchAndAdd:
        write64(addr, old + arg0);
        break;
      case RmwOp::Swap:
        write64(addr, arg0);
        break;
      default:
        EDM_PANIC("unknown RMW opcode %d", static_cast<int>(op));
    }
    return result;
}

} // namespace mem
} // namespace edm
