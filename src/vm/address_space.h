/**
 * @file
 * A sparse, paged virtual address space with RWX permissions.
 *
 * One AddressSpace backs one simulated enclave (Occlum: the single
 * enclave shared by all SIPs and the LibOS) or one baseline process.
 * Pages are 4 KiB; unmapped pages fault on any access, which is what
 * makes the MMDSFI guard regions (G1/G2 around each domain's data
 * region) effective.
 */
#ifndef OCCLUM_VM_ADDRESS_SPACE_H
#define OCCLUM_VM_ADDRESS_SPACE_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "base/bytes.h"
#include "base/result.h"

namespace occlum::vm {

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageMask = kPageSize - 1;

/** Page permission bits. */
enum Perm : uint8_t {
    kPermNone = 0,
    kPermR = 1,
    kPermW = 2,
    kPermX = 4,
    kPermRW = kPermR | kPermW,
    kPermRX = kPermR | kPermX,
    kPermRWX = kPermR | kPermW | kPermX,
};

/** Why a memory access failed. */
enum class AccessFault {
    kNone,
    kUnmapped,   // page not present (e.g. a guard region)
    kNoRead,
    kNoWrite,
    kNoExec,
};

/** Sparse paged memory. */
class AddressSpace
{
  public:
    AddressSpace() = default;
    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /** Map [addr, addr+len) with `perms`; addr/len must be page-aligned.
     *  Fails with kExist if any page is already mapped. */
    Status map(uint64_t addr, uint64_t len, uint8_t perms);

    /** Unmap [addr, addr+len); silently skips unmapped pages. */
    void unmap(uint64_t addr, uint64_t len);

    /** Change permissions on already-mapped pages. */
    Status protect(uint64_t addr, uint64_t len, uint8_t perms);

    /** True if every page of [addr, addr+len) is mapped. */
    bool is_mapped(uint64_t addr, uint64_t len) const;

    /** Permissions of the page containing addr (kPermNone if unmapped). */
    uint8_t perms_at(uint64_t addr) const;

    // ---- checked accessors used by the CPU --------------------------
    AccessFault read(uint64_t addr, void *out, uint64_t len) const;
    AccessFault write(uint64_t addr, const void *in, uint64_t len);
    /** Instruction fetch; stamps every page it touches (see
     *  touch_code). */
    AccessFault fetch(uint64_t addr, void *out, uint64_t len);

    /**
     * Width-templated single-access fast paths used by the superblock
     * tier's micro-op loop: TLB probe, permission check, and the copy
     * inline at the call site with a compile-time width, so the
     * common in-page access never leaves the caller's frame. An
     * access that straddles a page boundary falls back to the generic
     * path. Coherence is identical to read()/write() — in particular
     * a write into an executable page that was fetched under the
     * current code generation advances the counter, which is what
     * lets folded guards stay sound: the trace re-checks the
     * generation after every store.
     */
    template <uint64_t N>
    AccessFault
    read_fast(uint64_t addr, void *out) const
    {
        static_assert(N <= kPageSize);
        if ((addr & kPageMask) + N <= kPageSize) {
            Page *page = lookup_page(addr / kPageSize);
            if (page == nullptr) {
                return AccessFault::kUnmapped;
            }
            if (!(page->perms & kPermR)) {
                return AccessFault::kNoRead;
            }
            if (page->data == nullptr) {
                std::memset(out, 0, N); // lazy page: logically zeros
            } else {
                std::memcpy(out, page->data.get() + (addr & kPageMask), N);
            }
            return AccessFault::kNone;
        }
        return read(addr, out, N);
    }

    template <uint64_t N>
    AccessFault
    write_fast(uint64_t addr, const void *in)
    {
        static_assert(N <= kPageSize);
        if ((addr & kPageMask) + N <= kPageSize) {
            Page *page = lookup_page(addr / kPageSize);
            if (page == nullptr) {
                return AccessFault::kUnmapped;
            }
            if (!(page->perms & kPermW)) {
                return AccessFault::kNoWrite;
            }
            if (page->data == nullptr) {
                materialize(*page);
            }
            std::memcpy(page->data.get() + (addr & kPageMask), in, N);
            if (holds_live_code(*page)) {
                touch_code();
            }
            return AccessFault::kNone;
        }
        return write(addr, in, N);
    }

    // ---- trusted accessors used by the LibOS / loaders ---------------
    /** Copy bytes ignoring permissions (still faults on unmapped).
     *  A write_raw chunk of all zeros into a lazy page leaves the
     *  page lazy (same contents, no backing store, no bump). */
    AccessFault read_raw(uint64_t addr, void *out, uint64_t len) const;
    AccessFault write_raw(uint64_t addr, const void *in, uint64_t len);

    /** Zero-fill a range (trusted; used when zeroing BSS / new pages). */
    AccessFault zero_raw(uint64_t addr, uint64_t len);

    /** Number of currently mapped pages. */
    size_t mapped_pages() const { return pages_.size(); }

    /** Mapped pages of [addr, addr+len) that have a backing store;
     *  a lazy page (logically all zeros) has none. */
    size_t resident_pages(uint64_t addr, uint64_t len) const;

    /**
     * Bump the generation counter (invalidates CPU block/decode
     * caches). The counter also advances automatically on a write
     * into an executable page that an instruction fetch read under
     * the current generation, and on map/protect/unmap operations
     * that add or remove X permission, so callers only need this for
     * out-of-band modifications (e.g. tests poking at raw pages).
     *
     * Why a write to an X page that was not fetched under the current
     * generation may skip the bump: every cached block, superblock,
     * and successor link is used only while its generation equals the
     * current one, and every byte a block of generation G holds came
     * from a fetch() made at G, which stamped the page with G. A page
     * whose stamp is older is therefore covered by no usable block.
     */
    void touch_code() { ++code_generation_; }
    uint64_t code_generation() const { return code_generation_; }

  private:
    /**
     * A null `data` means the page is logically all-zeros and has no
     * backing store yet; the first write materializes it. Newly
     * mapped pages start in this state, so mapping a multi-MiB
     * reserve region (enclave slots, heaps) is O(pages) map entries,
     * not O(bytes) of memset.
     */
    struct Page {
        std::unique_ptr<uint8_t[]> data;
        uint8_t perms = kPermNone;
        /** Code generation of the last fetch() that read this page
         *  (~0: never fetched). */
        uint64_t fetched_gen = ~0ull;
    };

    /** True if a write to `page` may change a usable cached block. */
    bool
    holds_live_code(const Page &page) const
    {
        return (page.perms & kPermX) && page.fetched_gen == code_generation_;
    }

    /**
     * Direct-mapped software TLB over the page table. Entries cache
     * Page pointers, which unordered_map keeps stable across inserts;
     * only unmap() (node erase) has to flush. Permissions are read
     * through the pointer, so protect() needs no flush either.
     */
    static constexpr size_t kTlbEntries = 256;
    struct TlbEntry {
        uint64_t page_no = ~0ull;
        Page *page = nullptr;
    };

    /** First write to a lazy zero page: allocate + clear its backing. */
    static void materialize(Page &page);

    /** TLB probe, inline so the fast read/write paths never leave the
     *  call site on a hit; the page-table walk stays out of line. */
    Page *
    lookup_page(uint64_t page_no) const
    {
        TlbEntry &entry = tlb_[page_no % kTlbEntries];
        if (entry.page_no == page_no) {
            return entry.page;
        }
        return lookup_page_slow(page_no);
    }
    Page *lookup_page_slow(uint64_t page_no) const;
    const Page *find_page(uint64_t addr) const;
    Page *find_page(uint64_t addr);
    void flush_tlb() const;

    /** Generic copy loop; `require` selects the permission bit. */
    template <bool Write>
    AccessFault access(uint64_t addr, void *buf, uint64_t len,
                       uint8_t require);

    std::unordered_map<uint64_t, Page> pages_;
    mutable std::array<TlbEntry, kTlbEntries> tlb_{};
    uint64_t code_generation_ = 0;
};

} // namespace occlum::vm

#endif // OCCLUM_VM_ADDRESS_SPACE_H
