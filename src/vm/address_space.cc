#include "vm/address_space.h"

#include <cstring>

namespace occlum::vm {

namespace {

/** True if all `len` bytes at `p` are zero. */
bool
all_zero(const uint8_t *p, uint64_t len)
{
    return len == 0 || (p[0] == 0 && std::memcmp(p, p + 1, len - 1) == 0);
}

} // namespace

Status
AddressSpace::map(uint64_t addr, uint64_t len, uint8_t perms)
{
    if ((addr & kPageMask) || (len & kPageMask) || len == 0) {
        return Status(ErrorCode::kInval, "map: unaligned range");
    }
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        if (pages_.count(a / kPageSize)) {
            return Status(ErrorCode::kExist, "map: page already mapped");
        }
    }
    pages_.reserve(pages_.size() + len / kPageSize);
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        Page page; // backing store stays lazy until the first write
        page.perms = perms;
        pages_.emplace(a / kPageSize, std::move(page));
    }
    if (perms & kPermX) {
        // New executable pages may complete instructions that cached
        // blocks previously saw as truncated at an unmapped boundary.
        touch_code();
    }
    return Status();
}

void
AddressSpace::unmap(uint64_t addr, uint64_t len)
{
    bool had_exec = false;
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        auto it = pages_.find(a / kPageSize);
        if (it == pages_.end()) {
            continue;
        }
        had_exec = had_exec || (it->second.perms & kPermX);
        pages_.erase(it);
    }
    flush_tlb(); // erased nodes may be cached in the TLB
    if (had_exec) {
        touch_code();
    }
}

Status
AddressSpace::protect(uint64_t addr, uint64_t len, uint8_t perms)
{
    if ((addr & kPageMask) || (len & kPageMask) || len == 0) {
        return Status(ErrorCode::kInval, "protect: unaligned range");
    }
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        if (!pages_.count(a / kPageSize)) {
            return Status(ErrorCode::kNoMem, "protect: page not mapped");
        }
    }
    bool touched_exec = false;
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        Page &page = pages_[a / kPageSize];
        // Permission changes that add or remove X (the SGX EMODPE /
        // runtime_protect paths) invalidate predecoded blocks: what
        // was fetchable may no longer be, and vice versa.
        touched_exec = touched_exec || ((page.perms | perms) & kPermX);
        page.perms = perms;
    }
    if (touched_exec) {
        touch_code();
    }
    return Status();
}

bool
AddressSpace::is_mapped(uint64_t addr, uint64_t len) const
{
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        if (!pages_.count(a / kPageSize)) {
            return false;
        }
    }
    return true;
}

size_t
AddressSpace::resident_pages(uint64_t addr, uint64_t len) const
{
    size_t resident = 0;
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        const Page *page = find_page(a);
        resident += page != nullptr && page->data != nullptr;
    }
    return resident;
}

uint8_t
AddressSpace::perms_at(uint64_t addr) const
{
    const Page *page = find_page(addr);
    return page ? page->perms : static_cast<uint8_t>(kPermNone);
}

void
AddressSpace::flush_tlb() const
{
    tlb_.fill(TlbEntry{});
}

AddressSpace::Page *
AddressSpace::lookup_page_slow(uint64_t page_no) const
{
    TlbEntry &entry = tlb_[page_no % kTlbEntries];
    auto it = pages_.find(page_no);
    if (it == pages_.end()) {
        return nullptr; // misses are not cached (map() must be seen)
    }
    entry.page_no = page_no;
    entry.page = const_cast<Page *>(&it->second);
    return entry.page;
}

const AddressSpace::Page *
AddressSpace::find_page(uint64_t addr) const
{
    return lookup_page(addr / kPageSize);
}

AddressSpace::Page *
AddressSpace::find_page(uint64_t addr)
{
    return lookup_page(addr / kPageSize);
}

void
AddressSpace::materialize(Page &page)
{
    page.data = std::make_unique<uint8_t[]>(kPageSize);
    std::memset(page.data.get(), 0, kPageSize);
}

template <bool Write>
AccessFault
AddressSpace::access(uint64_t addr, void *buf, uint64_t len, uint8_t require)
{
    // Fast path: the access stays inside one page (nearly every data
    // access the interpreter issues).
    if ((addr & kPageMask) + len <= kPageSize) {
        Page *page = lookup_page(addr / kPageSize);
        if (!page) {
            return AccessFault::kUnmapped;
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return AccessFault::kNoWrite;
            if (require & kPermX) return AccessFault::kNoExec;
            return AccessFault::kNoRead;
        }
        if constexpr (Write) {
            if (!page->data) {
                // A trusted write of zeros into a lazy page leaves it
                // lazy: its bytes already read as zeros, so contents
                // and every cached block stay exactly as they were,
                // and no code-generation bump is due. This keeps a
                // loaded image's zero padding from costing a page of
                // host memory per 4 KiB. Guest writes (require != 0)
                // are small and skip the check.
                if (require == 0 &&
                    all_zero(static_cast<uint8_t *>(buf), len)) {
                    return AccessFault::kNone;
                }
                materialize(*page);
            }
            std::memcpy(page->data.get() + (addr & kPageMask), buf, len);
            if (holds_live_code(*page)) {
                touch_code();
            }
        } else {
            if (!page->data) {
                std::memset(buf, 0, len); // lazy page: logically zeros
            } else {
                std::memcpy(buf, page->data.get() + (addr & kPageMask),
                            len);
            }
        }
        return AccessFault::kNone;
    }

    uint8_t *out = static_cast<uint8_t *>(buf);
    uint64_t done = 0;
    bool wrote_exec = false;
    // Even a faulting multi-page write has already modified the pages
    // before the fault, so the generation bump must happen on every
    // exit path, not only on success. Every page's stamp is read
    // before that single bump.
    auto finish = [&](AccessFault f) {
        if (Write && wrote_exec) {
            touch_code();
        }
        return f;
    };
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = find_page(a);
        if (!page) {
            return finish(AccessFault::kUnmapped);
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return finish(AccessFault::kNoWrite);
            if (require & kPermX) return finish(AccessFault::kNoExec);
            return finish(AccessFault::kNoRead);
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if constexpr (Write) {
            if (!page->data) {
                if (require == 0 && all_zero(out + done, n)) {
                    done += n; // lazy page stays lazy, as above
                    continue;
                }
                materialize(*page);
            }
            std::memcpy(page->data.get() + (a & kPageMask), out + done, n);
            wrote_exec = wrote_exec || holds_live_code(*page);
        } else {
            if (!page->data) {
                std::memset(out + done, 0, n);
            } else {
                std::memcpy(out + done,
                            page->data.get() + (a & kPageMask), n);
            }
        }
        done += n;
    }
    // Writes into executable pages that were fetched under the
    // current generation (guest stores through an RWX mapping,
    // loader/debugger pokes via write_raw) invalidate predecoded
    // blocks covering those bytes.
    return finish(AccessFault::kNone);
}

AccessFault
AddressSpace::read(uint64_t addr, void *out, uint64_t len) const
{
    return const_cast<AddressSpace *>(this)->access<false>(addr, out, len,
                                                           kPermR);
}

AccessFault
AddressSpace::write(uint64_t addr, const void *in, uint64_t len)
{
    return access<true>(addr, const_cast<void *>(in), len, kPermW);
}

AccessFault
AddressSpace::fetch(uint64_t addr, void *out, uint64_t len)
{
    AccessFault fault = access<false>(addr, out, len, kPermX);
    // Stamp every page the window touches, even on a fault: an extra
    // stamp only costs a later bump, a missing one would be unsound.
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        if (Page *page = lookup_page(a / kPageSize)) {
            page->fetched_gen = code_generation_;
        }
    }
    return fault;
}

AccessFault
AddressSpace::read_raw(uint64_t addr, void *out, uint64_t len) const
{
    return const_cast<AddressSpace *>(this)->access<false>(addr, out, len,
                                                           0);
}

AccessFault
AddressSpace::write_raw(uint64_t addr, const void *in, uint64_t len)
{
    return access<true>(addr, const_cast<void *>(in), len, 0);
}

AccessFault
AddressSpace::zero_raw(uint64_t addr, uint64_t len)
{
    uint64_t done = 0;
    bool wrote_exec = false;
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = find_page(a);
        if (!page) {
            if (wrote_exec) {
                touch_code();
            }
            return AccessFault::kUnmapped;
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if (page->data) {
            // Materialized page: clear just the requested span.
            std::memset(page->data.get() + (a & kPageMask), 0, n);
            wrote_exec = wrote_exec || holds_live_code(*page);
        }
        // Lazy pages are already logically zero: nothing to do, and
        // crucially no backing store is allocated, so zero-filling a
        // fresh multi-MiB mapping stays O(pages touched).
        done += n;
    }
    if (wrote_exec) {
        touch_code();
    }
    return AccessFault::kNone;
}

} // namespace occlum::vm
