#include "sgx/sgx.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "faultsim/faultsim.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::sgx {

namespace {

trace::Counter &
transition_counter(const char *name)
{
    return trace::Registry::instance().counter(name);
}

/** Digest of a 4 KiB zero page, computed once (see header note). */
const crypto::Sha256Digest &
zero_page_digest()
{
    static const crypto::Sha256Digest digest = [] {
        Bytes zeros(vm::kPageSize, 0);
        return crypto::Sha256::digest(zeros);
    }();
    return digest;
}

/** Bytes measure_reserved() absorbs per page: marker, perms, digest. */
constexpr size_t kReserveRecord = 8 + 1 + 32;

/** Records per hasher update: 64 x 41 B is exactly 41 SHA-256 blocks. */
constexpr size_t kReserveBatch = 64;

/**
 * kReserveBatch consecutive reserve records, so a reserve reaches the
 * hasher in long runs rather than two short updates per page. The
 * absorbed bytes are the same.
 */
const std::array<uint8_t, kReserveBatch * kReserveRecord> &
reserve_records()
{
    static const auto records = [] {
        std::array<uint8_t, kReserveBatch * kReserveRecord> out;
        for (size_t i = 0; i < kReserveBatch; ++i) {
            uint8_t *rec = out.data() + i * kReserveRecord;
            std::memset(rec, 0xff, 8); // LE64(~0) anonymous-reserve marker
            rec[8] = vm::kPermRW;
            std::memcpy(rec + 9, zero_page_digest().data(), 32);
        }
        return out;
    }();
    return records;
}

} // namespace

Status
Platform::reserve_epc(uint64_t bytes)
{
    // Fault injection: a busy platform may have paged-out / reserved
    // EPC even when our own accounting shows room (EPC is shared
    // machine-wide on real hardware).
    if (faultsim::FaultSim::instance().epc_reserve_fails()) {
        return Status(ErrorCode::kNoMem, "EPC exhausted (injected)");
    }
    if (epc_used_ + bytes > epc_capacity_) {
        return Status(ErrorCode::kNoMem, "EPC exhausted");
    }
    epc_used_ += bytes;
    return Status();
}

void
Platform::release_epc(uint64_t bytes)
{
    OCC_CHECK(bytes <= epc_used_);
    epc_used_ -= bytes;
}

Enclave::Enclave(Platform &platform, uint64_t base, uint64_t size)
    : platform_(&platform), base_(base), size_(size)
{
    OCC_CHECK_MSG((base & vm::kPageMask) == 0 &&
                  (size & vm::kPageMask) == 0,
                  "enclave range must be page aligned");
    OCC_TRACE_SPAN(kSgx, "sgx.ecreate", size);
    charge(CostModel::kEnclaveCreateFixedCycles);
    // Measure the ECREATE parameters.
    Bytes header;
    put_le<uint64_t>(header, base);
    put_le<uint64_t>(header, size);
    measuring_.update(header);
}

Enclave::~Enclave()
{
    platform_->release_epc(reserved_bytes_);
}

// Transition edges: the span brackets the clock charge, so its
// duration is exactly the transition's calibrated cycle cost and the
// breakdown benches can attribute it to the sgx category.
void
Enclave::charge_eenter()
{
    static trace::Counter *ctr = &transition_counter("sgx.eenter");
    OCC_TRACE_SPAN(kSgx, "sgx.eenter");
    ctr->add();
    charge(CostModel::kEenterCycles);
}

void
Enclave::charge_eexit()
{
    static trace::Counter *ctr = &transition_counter("sgx.eexit");
    OCC_TRACE_SPAN(kSgx, "sgx.eexit");
    ctr->add();
    charge(CostModel::kEexitCycles);
}

void
Enclave::charge_aex()
{
    static trace::Counter *ctr = &transition_counter("sgx.aex");
    OCC_TRACE_SPAN(kSgx, "sgx.aex");
    ctr->add();
    charge(CostModel::kAexCycles);
}

Status
Enclave::add_pages(uint64_t vaddr, uint64_t len, uint8_t perms,
                   const Bytes &content)
{
    if (initialized_) {
        return Status(ErrorCode::kPerm,
                      "SGX1: cannot add pages after EINIT");
    }
    if ((vaddr & vm::kPageMask) || (len & vm::kPageMask) || len == 0) {
        return Status(ErrorCode::kInval, "EADD: unaligned range");
    }
    if (vaddr < base_ || vaddr + len > base_ + size_) {
        return Status(ErrorCode::kInval, "EADD: outside enclave range");
    }
    if (content.size() > len) {
        return Status(ErrorCode::kInval, "EADD: content longer than range");
    }
    OCC_RETURN_IF_ERROR(platform_->reserve_epc(len));
    reserved_bytes_ += len;

    OCC_RETURN_IF_ERROR(mem_.map(vaddr, len, perms));
    if (!content.empty()) {
        OCC_CHECK(mem_.write_raw(vaddr, content.data(), content.size()) ==
                  vm::AccessFault::kNone);
    }

    // EEXTEND: measure page metadata plus contents.
    OCC_TRACE_SPAN(kSgx, "sgx.eadd", len / vm::kPageSize);
    uint64_t pages = len / vm::kPageSize;
    for (uint64_t i = 0; i < pages; ++i) {
        uint64_t page_vaddr = vaddr + i * vm::kPageSize;
        // Same bytes as put_le<uint64_t> + perms, without a heap
        // allocation per measured page.
        uint8_t meta[9];
        for (int b = 0; b < 8; ++b) {
            meta[b] = static_cast<uint8_t>(page_vaddr >> (8 * b));
        }
        meta[8] = perms;
        measuring_.update(meta, sizeof(meta));

        uint64_t content_off = i * vm::kPageSize;
        if (content_off >= content.size()) {
            // Whole page is zeros: fold the cached zero-page digest.
            measuring_.update(zero_page_digest().data(),
                              zero_page_digest().size());
        } else {
            // Stream the page through the persistent hasher, resumed
            // from the cached initial midstate, rather than
            // constructing a fresh Sha256 per measured page. The
            // digest folded into the measurement is unchanged.
            page_hasher_.resume(crypto::Sha256::initial_midstate());
            uint8_t page[vm::kPageSize];
            OCC_CHECK(mem_.read_raw(page_vaddr, page, vm::kPageSize) ==
                      vm::AccessFault::kNone);
            page_hasher_.update(page, vm::kPageSize);
            crypto::Sha256Digest d = page_hasher_.finish();
            measuring_.update(d.data(), d.size());
        }
    }
    added_pages_ += pages;
    charge(pages * CostModel::kEaddEextendCyclesPerPage);
    return Status();
}

Status
Enclave::measure_reserved(uint64_t len)
{
    if (initialized_) {
        return Status(ErrorCode::kPerm,
                      "SGX1: cannot add pages after EINIT");
    }
    if (len & vm::kPageMask) {
        return Status(ErrorCode::kInval, "unaligned reserve");
    }
    OCC_TRACE_SPAN(kSgx, "sgx.eadd_reserve", len / vm::kPageSize);
    uint64_t pages = len / vm::kPageSize;
    const auto &records = reserve_records();
    for (uint64_t left = pages; left > 0;) {
        uint64_t n = std::min<uint64_t>(left, kReserveBatch);
        measuring_.update(records.data(), n * kReserveRecord);
        left -= n;
    }
    added_pages_ += pages;
    charge(pages * CostModel::kEaddEextendCyclesPerPage);
    return Status();
}

Status
Enclave::init()
{
    if (initialized_) {
        return Status(ErrorCode::kPerm, "EINIT: already initialized");
    }
    measurement_ = measuring_.finish();
    initialized_ = true;
    OCC_TRACE_INSTANT(kSgx, "sgx.einit");
    return Status();
}

Status
Enclave::runtime_protect(uint64_t vaddr, uint64_t len, uint8_t perms)
{
    if (initialized_) {
        return Status(ErrorCode::kPerm,
                      "SGX1: page permissions are frozen after EINIT");
    }
    uint64_t gen_before = mem_.code_generation();
    OCC_RETURN_IF_ERROR(mem_.protect(vaddr, len, perms));
    if (mem_.code_generation() != gen_before) {
        // The permission change involved an executable page, so the
        // address space advanced its code generation — every CPU
        // block/decode cache derived from these pages is now stale
        // and will be rebuilt on next dispatch.
        OCC_TRACE_INSTANT(kSgx, "sgx.protect.code_invalidate", vaddr);
    }
    return Status();
}

namespace {

/**
 * The MAC'd report payload: measurement, the full enclave identity,
 * and user_data. Before identity joined this payload a report with a
 * forged signer or flipped attribute bits verified fine — the
 * regression tests in sgx_test.cc pin the fix.
 */
Bytes
report_mac_payload(const Report &report)
{
    Bytes payload(report.measurement.begin(), report.measurement.end());
    payload.insert(payload.end(), report.identity.signer.begin(),
                   report.identity.signer.end());
    put_le<uint64_t>(payload, report.identity.attributes);
    put_le<uint16_t>(payload, report.identity.isv_prod_id);
    put_le<uint16_t>(payload, report.identity.isv_svn);
    payload.insert(payload.end(), report.user_data.begin(),
                   report.user_data.end());
    return payload;
}

} // namespace

Status
Enclave::set_identity(const EnclaveIdentity &identity)
{
    if (initialized_) {
        return Status(ErrorCode::kPerm,
                      "SIGSTRUCT identity is frozen after EINIT");
    }
    identity_ = identity;
    return Status();
}

std::array<uint8_t, 64>
Enclave::bind_user_data(const Bytes &user_data)
{
    std::array<uint8_t, 64> bound{};
    if (user_data.size() <= bound.size()) {
        // Short data travels verbatim (zero-padded), preserving the
        // historical behaviour callers of small nonces rely on. An
        // empty vector's data() may be null, so skip the copy.
        if (!user_data.empty()) {
            std::memcpy(bound.data(), user_data.data(), user_data.size());
        }
    } else {
        // Longer data is digest-bound: the old code memcpy'd the
        // first 64 bytes and silently dropped the rest, so two
        // transcripts differing only beyond byte 64 produced
        // identical reports.
        crypto::Sha256Digest digest = crypto::Sha256::digest(user_data);
        std::memcpy(bound.data(), digest.data(), digest.size());
    }
    return bound;
}

Report
Enclave::create_report(const Bytes &user_data) const
{
    OCC_CHECK_MSG(initialized_, "EREPORT before EINIT");
    Report report;
    report.measurement = measurement_;
    report.identity = identity_;
    report.user_data = bind_user_data(user_data);
    Bytes payload = report_mac_payload(report);
    report.mac = crypto::hmac_sha256(platform_->report_key().data(),
                                     platform_->report_key().size(),
                                     payload.data(), payload.size());
    OCC_TRACE_SPAN(kSgx, "sgx.ereport");
    platform_->clock().advance(CostModel::kLocalAttestCycles);
    return report;
}

bool
Enclave::verify_report(const Platform &platform, const Report &report)
{
    Bytes payload = report_mac_payload(report);
    crypto::Sha256Digest expect =
        crypto::hmac_sha256(platform.report_key().data(),
                            platform.report_key().size(), payload.data(),
                            payload.size());
    return crypto::digest_equal(expect, report.mac);
}

// ---- SgxThread ------------------------------------------------------

SgxThread::SgxThread(Enclave &enclave)
    : enclave_(&enclave),
      owned_cpu_(std::make_unique<vm::Cpu>(enclave.mem())),
      cpu_(owned_cpu_.get()),
      tcs_id_(TransitionMonitor::instance().register_tcs(TcsPhase::kInside))
{}

SgxThread::SgxThread(Enclave &enclave, vm::Cpu &cpu)
    : enclave_(&enclave), cpu_(&cpu),
      tcs_id_(TransitionMonitor::instance().register_tcs(TcsPhase::kInside))
{}

void
SgxThread::record(Transition event)
{
    TransitionMonitor::instance().record(
        tcs_id_, event, enclave_->platform().clock().cycles());
}

Status
SgxThread::enter()
{
    if (phase_ == TcsPhase::kAexed) {
        // The SmashEx shape: re-entry while the single SSA frame
        // (NSSA=1) still holds the interrupted context. Refused with
        // an error, never silently serviced.
        record(Transition::kEenterRefused);
        return Status(ErrorCode::kBusy,
                      "EENTER refused: SSA frame occupied (NSSA=1)");
    }
    if (phase_ == TcsPhase::kInside) {
        record(Transition::kEenterRefused);
        return Status(ErrorCode::kBusy, "EENTER refused: TCS busy");
    }
    phase_ = TcsPhase::kInside;
    record(Transition::kEenter);
    enclave_->charge_eenter();
    return Status();
}

Status
SgxThread::leave()
{
    if (phase_ != TcsPhase::kInside) {
        record(Transition::kEexitRefused);
        return Status(ErrorCode::kInval,
                      "EEXIT refused: not executing inside the enclave");
    }
    phase_ = TcsPhase::kOutside;
    record(Transition::kEexit);
    enclave_->charge_eexit();
    return Status();
}

bool
SgxThread::try_bind(vm::Cpu &cpu)
{
    if (phase_ == TcsPhase::kAexed) {
        record(Transition::kBindRefused);
        return false;
    }
    cpu_ = &cpu;
    record(Transition::kBind);
    return true;
}

bool
SgxThread::try_aex()
{
    if (phase_ != TcsPhase::kInside) {
        record(Transition::kAexRefused);
        return false;
    }
    ssa_ = cpu_->state();
    vm::CpuState scrubbed = ssa_;
    for (size_t i = 0; i < scrubbed.regs.size(); ++i) {
        scrubbed.regs[i] = 0xae00ae00ae00ae00ull + i;
    }
    for (auto &bnd : scrubbed.bnds) {
        bnd = vm::BoundReg{};
    }
    scrubbed.flags = vm::Flags{};
    scrubbed.rip = 0;
    cpu_->set_state(scrubbed);
    phase_ = TcsPhase::kAexed;
    record(Transition::kAex);
    enclave_->charge_aex();
    return true;
}

bool
SgxThread::try_resume()
{
    if (phase_ != TcsPhase::kAexed) {
        record(Transition::kEresumeRefused);
        return false;
    }
    cpu_->set_state(ssa_);
    phase_ = TcsPhase::kInside;
    record(Transition::kEresume);
    enclave_->charge_eenter();
    return true;
}

crypto::Sha256Digest
Enclave::derive_platform_key(const Bytes &label) const
{
    OCC_CHECK_MSG(initialized_, "EGETKEY before EINIT");
    // Platform-wide derivation: keyed by the report key (which only
    // enclaves can reach), salted with a fixed domain-separation
    // prefix so a derived key can never collide with a report MAC.
    Bytes msg;
    const char *prefix = "occlum.egetkey.v1:";
    msg.insert(msg.end(), prefix, prefix + std::strlen(prefix));
    msg.insert(msg.end(), label.begin(), label.end());
    OCC_TRACE_SPAN(kSgx, "sgx.egetkey");
    platform_->clock().advance(CostModel::kEgetkeyCycles);
    return crypto::hmac_sha256(platform_->report_key().data(),
                               platform_->report_key().size(), msg.data(),
                               msg.size());
}

} // namespace occlum::sgx
