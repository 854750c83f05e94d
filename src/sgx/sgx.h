/**
 * @file
 * Simulated Intel SGX 1.0: enclaves, EPC accounting, measurement,
 * enclave entry/exit costs, SSA-based thread state save, and local
 * attestation.
 *
 * Fidelity notes (per DESIGN.md's substitution table):
 *  - Enclave creation really hashes the added content (SHA-256) into a
 *    running measurement, so "enclave creation is expensive and scales
 *    with enclave size" (paper §2.1) is an emergent property, not a
 *    hard-coded delay. For zero-filled heap reserve pages a cached
 *    zero-page digest is folded in instead of re-hashing 4 KiB of
 *    zeros — a pure wall-clock optimization with no observable effect
 *    on the simulated cost or the uniqueness of measurements.
 *  - SGX 1.0 semantics: after EINIT no enclave page may be added,
 *    removed, or have its permissions changed (paper §2.1). The
 *    Enclave API enforces this; the Occlum LibOS therefore
 *    preallocates domain memory (paper §6).
 *  - EENTER/EEXIT/AEX charge calibrated cycle costs to the platform
 *    clock. AEX additionally saves the full CPU state — including MPX
 *    bound registers — into the thread's SSA (paper §2.1, §2.3).
 *  - Local attestation: EREPORT produces a report MAC'd with a
 *    platform-wide report key (HMAC-SHA-256); any enclave on the same
 *    platform can verify it.
 */
#ifndef OCCLUM_SGX_SGX_H
#define OCCLUM_SGX_SGX_H

#include <memory>
#include <string>
#include <vector>

#include "base/cost_model.h"
#include "base/result.h"
#include "base/sim_clock.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sgx/monitor.h"
#include "vm/address_space.h"
#include "vm/cpu.h"

namespace occlum::sgx {

/** The machine: clock, EPC pool, and the platform report key. */
class Platform
{
  public:
    explicit Platform(uint64_t epc_capacity_bytes = 4ull << 30)
        : epc_capacity_(epc_capacity_bytes)
    {
        // A fixed platform key: local attestation only needs "same
        // platform => same key"; confidentiality of the simulation is
        // not a goal.
        for (size_t i = 0; i < report_key_.size(); ++i) {
            report_key_[i] = static_cast<uint8_t>(0xA5 ^ (17 * i));
        }
    }

    SimClock &clock() { return clock_; }
    const SimClock &clock() const { return clock_; }

    uint64_t epc_used() const { return epc_used_; }
    uint64_t epc_capacity() const { return epc_capacity_; }

    const crypto::Key128 &report_key() const { return report_key_; }

    /** EPC bookkeeping (called by Enclave). */
    Status reserve_epc(uint64_t bytes);
    void release_epc(uint64_t bytes);

  private:
    SimClock clock_;
    uint64_t epc_capacity_;
    uint64_t epc_used_ = 0;
    crypto::Key128 report_key_;
};

/**
 * SIGSTRUCT-shaped enclave identity, configured before EINIT. The
 * signer digest models MRSIGNER (hash of the signing key, what oesign
 * stamps into SIGSTRUCT); attributes carry flag bits such as DEBUG;
 * isv_prod_id / isv_svn are the product and security-version numbers
 * verification policies match on. Identity is not part of MRENCLAVE
 * (as on real hardware), but every field is covered by the report MAC.
 */
struct EnclaveIdentity {
    /** The DEBUG attribute bit: secrets must not flow to debug enclaves. */
    static constexpr uint64_t kAttrDebug = 1ull << 1;

    crypto::Sha256Digest signer{};
    uint64_t attributes = 0;
    uint16_t isv_prod_id = 0;
    uint16_t isv_svn = 0;

    bool
    operator==(const EnclaveIdentity &other) const
    {
        return signer == other.signer && attributes == other.attributes &&
               isv_prod_id == other.isv_prod_id &&
               isv_svn == other.isv_svn;
    }
};

/**
 * A local-attestation report (EREPORT output). The MAC covers the
 * measurement, the full enclave identity, and user_data — a report
 * with a forged signer or attributes must not verify.
 */
struct Report {
    crypto::Sha256Digest measurement{};
    EnclaveIdentity identity{};
    std::array<uint8_t, 64> user_data{};
    crypto::Sha256Digest mac{};
};

/** A simulated SGX 1.0 enclave. */
class Enclave
{
  public:
    /**
     * ECREATE: reserve the enclave's virtual range [base, base+size)
     * and start the measurement. `size` bounds the total pages that
     * may be EADDed. Charges the fixed creation cost.
     */
    Enclave(Platform &platform, uint64_t base, uint64_t size);
    ~Enclave();

    Enclave(const Enclave &) = delete;
    Enclave &operator=(const Enclave &) = delete;

    /**
     * EADD + EEXTEND: map pages at `vaddr` with `perms` and measure
     * them. `content` is copied in (padded with zeros to a page
     * multiple); pass an empty Bytes for zero pages. Only valid
     * before init(). Charges per-page add+measure cost.
     */
    Status add_pages(uint64_t vaddr, uint64_t len, uint8_t perms,
                     const Bytes &content = {});

    /**
     * EADD+EEXTEND accounting for `len` bytes of zero "reserve" pages
     * (heap, stacks) without mapping backing memory. The cycle cost
     * equals add_pages() of as many zero pages. The measurement does
     * not: each reserved page is measured as an LE64(~0) reserve
     * marker in place of its address, RW perms, and the zero-page
     * digest, so it is deterministic and position-independent but
     * differs from explicit zero pages. Used by the EIP baseline,
     * whose minimal enclaves are hundreds of MiB of mostly-zero pages.
     */
    Status measure_reserved(uint64_t len);

    /**
     * Stamp the SIGSTRUCT-shaped identity (signer, attributes, ISV
     * prod id / SVN) reported by EREPORT. Like SIGSTRUCT, identity is
     * fixed at launch: fails with kPerm after init().
     */
    Status set_identity(const EnclaveIdentity &identity);
    const EnclaveIdentity &identity() const { return identity_; }

    /** EINIT: finalize the measurement; enables enter(). */
    Status init();

    bool initialized() const { return initialized_; }
    const crypto::Sha256Digest &measurement() const { return measurement_; }
    uint64_t base() const { return base_; }
    uint64_t size() const { return size_; }

    /** The enclave's (single) address space, shared by all its threads. */
    vm::AddressSpace &mem() { return mem_; }

    /** The platform this enclave was created on. */
    Platform &platform() const { return *platform_; }

    /**
     * SGX 1.0 restriction: these fail with EPERM after init().
     * The LibOS uses them during loading (pre-init) only.
     */
    Status runtime_protect(uint64_t vaddr, uint64_t len, uint8_t perms);

    // ---- transition cost charging -------------------------------------
    // Out-of-line: each transition opens an sgx-category trace span
    // around the charge and bumps its registry counter.
    void charge_eenter();
    void charge_eexit();
    void charge_aex();

    /**
     * EREPORT: produce a local-attestation report binding `user_data`.
     * Data up to the 64-byte report field is carried verbatim
     * (zero-padded); longer data is bound by its SHA-256 digest in the
     * first 32 bytes — never silently truncated, so every byte of an
     * arbitrary-length handshake transcript stays authenticated.
     */
    Report create_report(const Bytes &user_data) const;

    /** The report_data bytes create_report(user_data) would bind. */
    static std::array<uint8_t, 64> bind_user_data(const Bytes &user_data);

    /** Verify a report against this platform's report key. */
    static bool verify_report(const Platform &platform,
                              const Report &report);

    /**
     * EGETKEY-shaped platform key derivation: any initialized enclave
     * on the same platform derives the same 32-byte key for a given
     * label, and no code outside an enclave can (the host never holds
     * the report key). Models the shared platform-bound key two local
     * enclaves use to key a channel after attesting each other; it
     * proves *co-residency*, not identity — identity comes from
     * verify_report (see DESIGN.md §8 threat model).
     */
    crypto::Sha256Digest derive_platform_key(const Bytes &label) const;

    /** Total pages EADDed so far. */
    uint64_t added_pages() const { return added_pages_; }

  private:
    void charge(uint64_t cycles) { platform_->clock().advance(cycles); }

    Platform *platform_;
    uint64_t base_;
    uint64_t size_;
    vm::AddressSpace mem_;
    crypto::Sha256 measuring_;
    /** Reused per-page hasher for EEXTEND content measurement. */
    crypto::Sha256 page_hasher_;
    crypto::Sha256Digest measurement_{};
    EnclaveIdentity identity_{};
    bool initialized_ = false;
    uint64_t added_pages_ = 0;
    uint64_t reserved_bytes_ = 0;
};

/**
 * One SGX thread: a TCS plus its SSA. By default owns a Cpu bound to
 * the enclave's address space; the second constructor binds the TCS
 * to an existing Cpu instead (the kernel's per-SIP threads). AEX
 * saves the architectural state (including bound registers) to the
 * SSA; resume() restores it.
 *
 * The TCS has a single SSA frame (NSSA=1, the configuration the
 * Occlum LibOS runs with): an AEX while already in AEX has nowhere
 * to save state, so real hardware would overwrite the frame and
 * corrupt the interrupted context. try_aex() therefore *rejects*
 * nested injection; aex() treats it as a hard programming error.
 * The same rule refuses EENTER while the frame is occupied — the
 * SmashEx re-entry shape — and refuses bind/rebind mid-AEX.
 *
 * Every transition (serviced or refused) is reported to the
 * TransitionMonitor, which checks it against the legal automaton
 * (see monitor.h) with the platform clock's cycle as context.
 */
class SgxThread
{
  public:
    explicit SgxThread(Enclave &enclave);
    SgxThread(Enclave &enclave, vm::Cpu &cpu);

    SgxThread(const SgxThread &) = delete;
    SgxThread &operator=(const SgxThread &) = delete;

    vm::Cpu &
    cpu()
    {
        OCC_CHECK_MSG(cpu_ != nullptr, "SgxThread::cpu() while unbound");
        return *cpu_;
    }
    /** False between unbind() and the next bind. */
    bool bound() const { return cpu_ != nullptr; }
    Enclave &enclave() { return *enclave_; }

    /**
     * EENTER: take the TCS from host side into the enclave. Refused
     * with EBUSY while the TCS is busy (kInside) or — the SmashEx
     * rule — while the single SSA frame is occupied (kAexed): with
     * NSSA=1 there is no frame left to take an exception in, so
     * hardware faults the entry instead of servicing it.
     */
    Status enter();

    /** EEXIT: leave the enclave. Refused unless executing inside. */
    Status leave();

    /**
     * Re-point a bound-CPU TCS at another logical processor's state.
     * The SMP kernel keeps one TCS (one SSA frame) per simulated
     * core and rebinds it to whichever SIP's CPU that core is
     * executing when an AEX lands. Refused mid-AEX: the SSA frame
     * holds the interrupted state until ERESUME, and a rebind would
     * orphan it. Returns false (and records the refusal) instead of
     * crashing, so an adversarial injection schedule degrades to a
     * skipped event rather than taking the kernel down.
     */
    bool try_bind(vm::Cpu &cpu);

    /** try_bind() that treats a refused rebind as a programming error. */
    void
    bind(vm::Cpu &cpu)
    {
        OCC_CHECK_MSG(try_bind(cpu), "rebind with an occupied SSA frame");
    }

    /**
     * Drop the CPU binding, so the TCS holds no pointer to a logical
     * processor that may be destroyed before the next bind (a SIP
     * that dies between two AEXs on its core). Not a hardware
     * transition, so nothing is recorded. Illegal mid-AEX, for the
     * reason try_bind() refuses there.
     */
    void
    unbind()
    {
        OCC_CHECK_MSG(phase_ != TcsPhase::kAexed,
                      "unbind with an occupied SSA frame");
        cpu_ = nullptr;
    }

    /**
     * Asynchronous enclave exit: snapshot the state into the SSA and
     * clobber the live registers — on real SGX the synthetic state
     * the untrusted host sees is scrubbed, and anything the host
     * leaves behind is overwritten by ERESUME. Clobbering here makes
     * the restore meaningful: a field the SSA round trip dropped
     * resumes as garbage instead of silently surviving.
     * Returns false (no state change, no charge) while already in
     * AEX: the single SSA frame is occupied.
     */
    bool try_aex();

    /** try_aex() that treats nested AEX as a programming error. */
    void
    aex()
    {
        OCC_CHECK_MSG(try_aex(),
                      "nested AEX: the TCS has one SSA frame (NSSA=1)");
    }

    /**
     * ERESUME: restore the SSA snapshot (bound registers included).
     * Returns false if no AEX is pending (nothing to restore).
     */
    bool try_resume();

    /** try_resume() that treats a spurious resume as a programming error. */
    void
    resume()
    {
        OCC_CHECK_MSG(try_resume(), "ERESUME with no occupied SSA frame");
    }

    bool in_aex() const { return phase_ == TcsPhase::kAexed; }
    TcsPhase phase() const { return phase_; }
    const vm::CpuState &ssa() const { return ssa_; }
    int tcs_id() const { return tcs_id_; }

  private:
    /** Report one transition to the monitor at the platform clock. */
    void record(Transition event);

    Enclave *enclave_;
    /** Set only by the owning constructor. */
    std::unique_ptr<vm::Cpu> owned_cpu_;
    vm::Cpu *cpu_;
    vm::CpuState ssa_;
    TcsPhase phase_ = TcsPhase::kInside;
    int tcs_id_;
};

} // namespace occlum::sgx

#endif // OCCLUM_SGX_SGX_H
