/**
 * @file
 * The Occlum LibOS (paper §6): one enclave, one LibOS instance, many
 * SFI-Isolated Processes.
 *
 * At construction the system creates a single SGX enclave and
 * preallocates N fixed-geometry MMDSFI domain slots inside it (the
 * SGX 1.0 workaround: pages cannot be added after EINIT). spawn()
 * loads a *verifier-signed* OELF image into a free slot — rewriting
 * its cfi_labels to the new domain ID, injecting the syscall
 * trampoline, and initializing bnd0/bnd1 — at a cost proportional to
 * the binary size (no enclave creation, no attestation, no state
 * copy: the SIP advantage of paper §3.2).
 *
 * LibOS syscalls are function calls through the trampoline; on return
 * the LibOS checks that the return target is a cfi_label of the
 * calling SIP (paper §6, "Syscall interface"). The file system is the
 * writable EncFs with a single page cache shared by all SIPs, plus
 * /dev and /proc special files implemented entirely inside the
 * enclave. Network operations are delegated to the host and charged
 * an OCALL per operation (paper §6, "Networking").
 */
#ifndef OCCLUM_LIBOS_OCCLUM_SYSTEM_H
#define OCCLUM_LIBOS_OCCLUM_SYSTEM_H

#include "libos/encfs.h"
#include "oskit/kernel.h"
#include "sgx/sgx.h"

namespace occlum::libos {

/** A file opened on the encrypted FS. */
class EncFile : public oskit::FileObject
{
  public:
    EncFile(EncFs *fs, uint32_t inode, uint64_t flags)
        : fs_(fs), inode_(inode), flags_(flags)
    {
        if (flags_ & abi::kOpenAppend) {
            auto size = fs_->file_size(inode_);
            offset_ = size.ok() ? size.value() : 0;
        }
    }

    oskit::IoResult read(oskit::Kernel &kernel, uint8_t *buf,
                         uint64_t len) override;
    oskit::IoResult write(oskit::Kernel &kernel, const uint8_t *buf,
                          uint64_t len) override;
    Result<int64_t> seek(int64_t offset, int whence) override;
    int64_t size() const override;
    Status fsync(oskit::Kernel &kernel) override;

  private:
    EncFs *fs_;
    uint32_t inode_;
    uint64_t flags_;
    uint64_t offset_ = 0;
};

/** /dev/null, /dev/zero, and /proc text files. */
class DevFile : public oskit::FileObject
{
  public:
    enum class Kind { kNull, kZero, kProcText };

    DevFile(Kind kind, std::string text = {})
        : kind_(kind), text_(std::move(text))
    {}

    oskit::IoResult read(oskit::Kernel &kernel, uint8_t *buf,
                         uint64_t len) override;
    oskit::IoResult write(oskit::Kernel &kernel, const uint8_t *buf,
                          uint64_t len) override;

  private:
    Kind kind_;
    std::string text_;
    uint64_t offset_ = 0;
};

/** The Occlum system: kernel personality + enclave + FS. */
class OcclumSystem : public oskit::Kernel
{
  public:
    struct Config {
        int num_slots = 16;
        /** Must equal the binaries' link-time code_reserve. */
        uint64_t slot_code_size = 1 << 20;
        uint64_t slot_data_size = 6 << 20;
        uint64_t enclave_base = 0x100000000ull;
        uint64_t fs_blocks = 1 << 14; // 64 MiB device
        crypto::Key128 verifier_key{};
        crypto::Key128 fs_key{};
        /**
         * SIGSTRUCT-shaped launch identity reported by EREPORT (the
         * signer digest is derived from verifier_key, oesign-style:
         * MRSIGNER = hash of the signing key). Attestation policies
         * in src/attest match on these.
         */
        uint16_t isv_prod_id = 1;
        uint16_t isv_svn = 1;
        /** Launch with the DEBUG attribute (verifiers reject it). */
        bool debug_enclave = false;
        bool check_signatures = true;
        size_t fs_cache_blocks = 2048;
        /** EncFs sequential readahead depth (0 disables). */
        size_t fs_readahead_blocks = 8;
        /**
         * Mount this (persistent) device instead of creating a fresh
         * one — how a restarted system finds the data its predecessor
         * wrote. Not owned; must outlive the system.
         */
        host::BlockDevice *external_device = nullptr;
        /** mkfs the device (true) or mount what is on it (false). */
        bool format_device = true;
        /**
         * Simulated cores (TCS threads the scheduler dispatches on).
         * 0 = take OCCLUM_CORES from the environment (default 1).
         * Tests that assert exact interleavings pin this to 1.
         */
        int cores = 0;
    };

    OcclumSystem(sgx::Platform &platform, host::HostFileStore &binaries,
                 Config config, host::NetSim *net = nullptr);

    EncFs &fs() { return *encfs_; }
    sgx::Enclave &enclave() { return *enclave_; }
    host::BlockDevice &device() { return *active_device_; }
    const Config &config() const { return config_; }

    /**
     * Result of the constructor's mkfs/mount. A remount of a device
     * an injected fault corrupted must fail *cleanly* (kIo here, FS
     * operations erroring) rather than abort the enclave.
     */
    const Status &fs_status() const { return fs_status_; }

    /** Slots currently free (for tests / capacity checks). */
    int free_slots() const;

    /** The TCS serving `core`, or null before its first AEX (tests). */
    sgx::SgxThread *
    core_thread(int core)
    {
        return core_threads_[static_cast<size_t>(core)].get();
    }

    uint64_t net_op_cost() const override
    {
        return CostModel::kEexitCycles + CostModel::kEenterCycles;
    }

  protected:
    Result<std::unique_ptr<oskit::Process>>
    create_process(const std::string &path,
                   const std::vector<std::string> &argv) override;
    void destroy_process(oskit::Process &proc) override;

    uint64_t
    syscall_cost() const override
    {
        return CostModel::kLibosSyscallCycles;
    }

    Result<oskit::FilePtr> fs_open(oskit::Process &proc,
                                   const std::string &path,
                                   uint64_t flags) override;
    Status fs_unlink(const std::string &path) override;
    Status fs_mkdir(const std::string &path) override;

    Status validate_syscall_return(oskit::Process &proc,
                                   uint64_t target) override;
    Status validate_user_range(oskit::Process &proc, uint64_t addr,
                               uint64_t len) override;

    /**
     * Injected asynchronous enclave exit (src/faultsim, aex_every):
     * save the interrupted SIP's state to the SSA, scrub the live
     * registers as the hardware would, and ERESUME — a genuine
     * round trip, so a broken SSA save/restore corrupts the SIP.
     */
    void on_injected_aex(oskit::Process &proc) override;

    uint64_t
    mmap_zero_cost(uint64_t len) const override
    {
        // The LibOS zero-fills anonymous mappings manually (paper §6).
        return static_cast<uint64_t>(
            len * CostModel::kMemcpyCyclesPerByte);
    }

  private:
    struct Slot {
        uint64_t base = 0;
        bool used = false;
    };

    uint64_t slot_span() const;

    sgx::Platform *platform_;
    Config config_;
    std::unique_ptr<sgx::Enclave> enclave_;
    std::unique_ptr<host::BlockDevice> device_;
    /** The device in use: owned device_ or config.external_device. */
    host::BlockDevice *active_device_ = nullptr;
    std::unique_ptr<EncFs> encfs_;
    Status fs_status_;
    std::vector<Slot> slots_;
    uint32_t next_domain_id_ = 1;
    /**
     * One TCS (one SSA frame, NSSA=1) per simulated core, rebound to
     * the interrupted SIP's CPU when an injected AEX lands on that
     * core — the paper's deployment shape: many SIPs scheduled over a
     * fixed pool of enclave threads.
     */
    std::vector<std::unique_ptr<sgx::SgxThread>> core_threads_;
};

} // namespace occlum::libos

#endif // OCCLUM_LIBOS_OCCLUM_SYSTEM_H
