/**
 * @file
 * The shared kernel core: process table, deterministic round-robin
 * scheduler, blocking syscall machinery, and the syscall dispatch
 * that every OS personality (Linux model, Occlum LibOS, EIP/Graphene
 * baseline) plugs into.
 *
 * Personalities differ in:
 *  - how processes are created and where their memory lives (per-
 *    process address spaces vs. domains in one shared enclave),
 *  - the cost of a syscall round trip (native trap vs. in-enclave
 *    function call vs. OCALL with two world switches),
 *  - the file system behind open() (plain host FS vs. writable
 *    encrypted FS vs. read-only protected files),
 *  - extra costs on IPC (the EIP baseline encrypts pipe traffic
 *    through untrusted memory, paper §3.2),
 *  - syscall-return validation (the Occlum LibOS checks the return
 *    target is a cfi_label of the calling SIP, paper §6).
 */
#ifndef OCCLUM_OSKIT_KERNEL_H
#define OCCLUM_OSKIT_KERNEL_H

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/sim_clock.h"
#include "oelf/abi.h"
#include "oskit/file_object.h"
#include "trace/metrics.h"
#include "vm/cpu.h"

namespace occlum::oskit {

/** Why a process stopped for good. */
enum class DeathCause {
    kNone,       // still alive
    kExited,     // called exit()
    kFault,      // memory/bound/decode fault (killed by the kernel)
    kPrivileged, // executed a privileged instruction
    kKilled,     // kill() by another process
    kPipe,       // wrote to a pipe with no readers (SIGPIPE-shaped)
};

/** Scheduler state of a process. */
enum class ProcState {
    kRunnable,
    kBlocked,
    kDead,
};

/**
 * Descriptors per process: fds live in [0, kMaxFds). Linux's default
 * nr_open, so the C1M sweep's million idle connections fit.
 */
constexpr int kMaxFds = 1 << 20;

/** One process (a SIP under Occlum; a full enclave under EIP). */
struct Process {
    int pid = 0;
    /**
     * Fixed home core (pid % cores, assigned at spawn). Run-queue
     * membership is always on the home core's queue — work stealing
     * changes which core *executes* a quantum, never where the pid is
     * queued, so cross-core wakeups need no routing decision.
     */
    int home_core = 0;
    /**
     * Round sequence number of the last scheduler visit (quantum or
     * retry). A pid stolen by an earlier core in the round must not
     * run again when its home core walks it, and a pid already
     * walked is not stolen.
     */
    uint64_t ran_round = 0;
    ProcState state = ProcState::kRunnable;
    DeathCause death = DeathCause::kNone;
    int64_t exit_code = 0;
    vm::FaultKind last_fault = vm::FaultKind::kNone;
    uint64_t last_fault_addr = 0;

    /** CPU + memory; both owned by the personality's process record.
     *  Null once the process is dead (see Kernel::kill_process). */
    vm::Cpu *cpu = nullptr;
    vm::AddressSpace *space = nullptr;

    /**
     * The fd table, indexed by descriptor: a null slot is a closed fd.
     * Dense, so every per-fd syscall is one bounds check and one load
     * however many descriptors are open, and ascending iteration is
     * ascending fd order (kill_process releases in that order, which
     * fixes the order of the wakes and epoll events it causes).
     */
    std::vector<FilePtr> fds;

    std::vector<std::string> argv;

    /** Owned resources for per-process-space personalities. */
    std::unique_ptr<vm::AddressSpace> owned_space;
    std::unique_ptr<vm::Cpu> owned_cpu;

    /** Domain geometry (used by Occlum; Linux uses it for the PCB). */
    uint64_t domain_base = 0;
    uint64_t d_begin = 0; // data region begin
    uint64_t d_end = 0;   // data region end (exclusive)

    /** mmap bump area inside the heap. */
    uint64_t mmap_cursor = 0;
    uint64_t mmap_end = 0;

    /** Earliest time a blocked process should retry (cycles). */
    uint64_t wake_time = ~0ull;

    /**
     * Set when a wakeup (wait-queue notification or due timer) has
     * scheduled this blocked process for one retry dispatch. Cleared
     * when the retry runs.
     */
    bool wake_pending = false;

    /**
     * Every wait queue this blocked process is registered on (one for
     * read/write/accept/waitpid, several for poll). Any wake detaches
     * it from all of them.
     */
    std::vector<WaitQueue *> waiting_on;

    /** In-flight (possibly blocked) syscall state. */
    bool in_syscall = false;
    uint64_t sys_num = 0;
    uint64_t sys_args[abi::kSyscallArgs] = {};
    uint64_t sys_ret_addr = 0;
    /**
     * Absolute deadline (cycles) for the in-flight syscall, computed
     * once at the first dispatch so blocked retries do not slide it.
     * ~0 = none/unset; reset on syscall entry.
     */
    uint64_t sys_deadline = ~0ull;

    /**
     * Epoll objects reachable from this process's fd table, so close()
     * can auto-remove the closed fd from every interest list without
     * scanning the whole table (O(#epolls), and #epolls is ~1).
     * Maintained by kEpollCreate / kClose / kill_process.
     */
    std::vector<EpollObject *> epolls;

    /**
     * Scan cursor for alloc_fd: every descriptor below it is known to
     * be occupied. Installing fds never invalidates it; any erase at
     * `fd` must lower it via fd_closed(fd). Keeps allocation O(1)
     * amortized instead of O(fds) — at a million open connections the
     * old full scan made every accept quadratic.
     */
    int fd_scan_hint = 0;

    void
    fd_closed(int fd)
    {
        fd_scan_hint = std::min(fd_scan_hint, fd);
    }

    /** The open file at `fd`, or null (closed or out of range). */
    FileObject *
    file_at(int64_t fd) const
    {
        return fd >= 0 && fd < static_cast<int64_t>(fds.size())
                   ? fds[static_cast<size_t>(fd)].get()
                   : nullptr;
    }

    /** Install `file` at `fd` (in [0, kMaxFds)), growing the table. */
    void
    install_fd(int fd, FilePtr file)
    {
        if (static_cast<size_t>(fd) >= fds.size()) {
            fds.resize(static_cast<size_t>(fd) + 1);
        }
        fds[static_cast<size_t>(fd)] = std::move(file);
    }

    /**
     * POSIX-style allocation: the lowest descriptor not currently in
     * the fd table, or -1 when every descriptor below kMaxFds is taken
     * (the caller returns EMFILE). The caller must install the
     * returned fd before allocating again (pipe() allocates two in a
     * row), or the same number comes back twice.
     */
    int
    alloc_fd()
    {
        size_t fd = static_cast<size_t>(fd_scan_hint);
        while (fd < fds.size() && fds[fd]) {
            ++fd;
        }
        // Everything below fd is occupied, so the next scan may start
        // here (the caller installs this fd).
        fd_scan_hint = static_cast<int>(fd);
        return fd < static_cast<size_t>(kMaxFds) ? static_cast<int>(fd)
                                                 : -1;
    }
};

/** Post-mortem record kept after a process is reaped. */
struct DeathRecord {
    DeathCause cause = DeathCause::kNone;
    int64_t code = 0;
    vm::FaultKind fault = vm::FaultKind::kNone;
    uint64_t fault_addr = 0;
};

/** Aggregate execution statistics. */
struct KernelStats {
    uint64_t spawns = 0;
    uint64_t syscalls = 0;
    uint64_t user_instructions = 0;
    uint64_t faults = 0;
};

/** The shared kernel. Subclass per OS personality. */
class Kernel
{
  public:
    Kernel(SimClock &clock, host::HostFileStore &binaries,
           host::NetSim *net = nullptr)
        : clock_(&clock), binaries_(&binaries), net_(net),
          // Register the kernel's metrics once; the registry keeps
          // the addresses stable for the lifetime of the process.
          ctr_syscalls_(
              &trace::Registry::instance().counter("kernel.syscalls")),
          ctr_spawns_(
              &trace::Registry::instance().counter("kernel.spawns")),
          ctr_faults_(
              &trace::Registry::instance().counter("kernel.faults")),
          hist_syscall_cycles_(&trace::Registry::instance().histogram(
              "kernel.syscall_cycles")),
          ctr_wakeups_(
              &trace::Registry::instance().counter("kernel.wakeups")),
          ctr_wasted_retries_(&trace::Registry::instance().counter(
              "kernel.wasted_retries")),
          ctr_deferred_retries_(&trace::Registry::instance().counter(
              "kernel.deferred_retries")),
          ctr_poll_calls_(&trace::Registry::instance().counter(
              "kernel.poll_calls")),
          ctr_sched_visits_(&trace::Registry::instance().counter(
              "kernel.sched_visits")),
          ctr_epoll_waits_(&trace::Registry::instance().counter(
              "kernel.epoll_waits"))
    {
        install_net_events();
    }
    virtual ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // ---- public control --------------------------------------------
    /**
     * Start a new process running `path` with `argv` (argv[0] is the
     * program name by convention). stdio_fds, when given, maps the
     * child's fds 0..2 from the *parent_pid* process's descriptors;
     * parent_pid < 0 takes stdio from the console.
     */
    Result<int> spawn(const std::string &path,
                      const std::vector<std::string> &argv,
                      int parent_pid = -1,
                      const std::array<int64_t, 3> *stdio_fds = nullptr);

    /**
     * Run one scheduler round: every core, in index order and from
     * the same start time, walks its own queue once in ascending pid
     * order, retrying wake-pending pids and running one quantum per
     * runnable pid; a core whose walk ran no quantum steals one from
     * the most-loaded other core. The clock then jumps to the latest
     * core's end. Pids spawned during the round first run next round.
     * Returns true if any process made progress (executed
     * instructions or completed a syscall). When false, callers may
     * advance the clock to next_wake_time() or conclude the system is
     * idle.
     */
    bool step_round();

    /**
     * Run until every process is dead, advancing the clock over
     * blocking waits. Panics on deadlock (all blocked forever) after
     * diagnosing, unless `allow_idle` is set, in which case it
     * returns with processes still blocked (e.g. a server waiting
     * for outside traffic).
     */
    void run(bool allow_idle = false);

    bool all_exited() const;
    /** Earliest known wake time over all blocked processes (~0=none). */
    uint64_t next_wake_time() const;

    /**
     * Configure the number of simulated cores. Must be called before
     * the first spawn (home cores are assigned at spawn). Each core
     * has its own run queue (see step_round); cores == 1 (the
     * default) is the degenerate case, one walk over one queue with
     * nothing to steal from.
     */
    void set_cores(int cores);
    int cores() const { return num_cores_; }
    /** Core whose share of the current round is executing. */
    int current_core() const { return current_core_; }

    /** Pids in death order — the determinism tests' fingerprint. */
    const std::vector<int> &death_order() const { return death_order_; }

    /** Timer-heap introspection (compaction tests). */
    size_t timer_entries() const { return timers_.size(); }
    uint64_t timer_dead_entries() const { return timer_dead_; }

    Result<int64_t> exit_code(int pid) const;
    /** Full post-mortem info (cause, fault kind) for a dead pid. */
    Result<DeathRecord> death_record(int pid) const;
    const Process *find_process(int pid) const;
    /** The record of `pid`, live or dead (nullptr if never spawned).
     *  A dead record keeps its exit state but no CPU or memory. */
    const Process *find_record(int pid) const;

    SimClock &clock() { return *clock_; }
    const std::string &console() const { return console_; }
    void clear_console() { console_.clear(); }
    const KernelStats &stats() const { return stats_; }
    host::NetSim *net() { return net_; }
    host::HostFileStore &binaries() { return *binaries_; }

    /** Instructions per scheduling quantum. */
    void set_quantum(uint64_t quantum) { quantum_ = quantum; }

    // ---- wakeups ---------------------------------------------------
    /**
     * Notify a wait queue that the condition it guards may now (or at
     * `when`, if in the future) hold. Waiters whose condition is due
     * are marked wake-pending and rejoin the scheduling walk at their
     * pid position; future events arm the timer heap instead, leaving
     * the waiters queued so earlier events can still reach them.
     */
    void wake_queue(WaitQueue &queue, uint64_t when);

  private:
    /** Route a queue notification to its epoll watches (wake_queue). */
    void notify_watches(WaitQueue &queue, uint64_t when);

  public:

    // ---- personality hooks --------------------------------------------
  protected:
    /** Create the process record: memory, CPU, loaded image, PCB. */
    virtual Result<std::unique_ptr<Process>>
    create_process(const std::string &path,
                   const std::vector<std::string> &argv) = 0;

    /** Tear down personality resources (e.g. free the domain slot). */
    virtual void destroy_process(Process &proc) = 0;

    /** Cycles charged on every syscall entry/exit round trip. */
    virtual uint64_t syscall_cost() const = 0;

    /** Open a path on the personality's file system. */
    virtual Result<FilePtr> fs_open(Process &proc, const std::string &path,
                                    uint64_t flags) = 0;
    virtual Status fs_unlink(const std::string &path) = 0;
    virtual Status fs_mkdir(const std::string &path) = 0;

  public:
    /** Per-byte cycles for moving pipe data (EIP adds crypto). */
    virtual double pipe_byte_cost() const
    {
        return CostModel::kPipeCopyCyclesPerByte;
    }

    /** Extra cycles per pipe operation (EIP: two world switches). */
    virtual uint64_t pipe_op_cost() const { return 0; }

    /** Extra cycles per network operation (enclaves: an OCALL). */
    virtual uint64_t net_op_cost() const { return 0; }

  protected:

    /**
     * Validate the syscall return target popped off the user stack.
     * The Occlum LibOS enforces that it is a cfi_label of the calling
     * SIP (paper §6); others accept anything.
     */
    virtual Status
    validate_syscall_return(Process &proc, uint64_t target)
    {
        (void)proc;
        (void)target;
        return Status();
    }

    /** Zero-fill cost for anonymous mmap (Occlum does it manually). */
    virtual uint64_t mmap_zero_cost(uint64_t len) const
    {
        (void)len;
        return 0;
    }

    /**
     * Check a user buffer is legal for the calling process. Occlum
     * confines it to the SIP's own data region — a malicious SIP must
     * not use the LibOS as a deputy to read other SIPs' memory.
     */
    virtual Status validate_user_range(Process &proc, uint64_t addr,
                                       uint64_t len);

    /**
     * Fault-injection hook (src/faultsim, aex_every): an asynchronous
     * enclave exit at the current instruction boundary. Personalities
     * that model enclaves save/restore the SSA and charge the
     * AEX+ERESUME transitions; the base kernel has no enclave, so the
     * default is a no-op.
     */
    virtual void on_injected_aex(Process &proc) { (void)proc; }

    // ---- helpers available to personalities -----------------------------
  public:
    void charge(uint64_t cycles) { clock_->advance(cycles); }

    /** Copy data out of / into a process's memory (EFAULT checked). */
    Status copy_from_user(Process &proc, uint64_t addr, void *out,
                          uint64_t len);
    Status copy_to_user(Process &proc, uint64_t addr, const void *in,
                        uint64_t len);
    /** Read a NUL-terminated or length-prefixed string. */
    Result<std::string> read_user_string(Process &proc, uint64_t addr,
                                         uint64_t len);
    Result<std::string> read_user_cstring(Process &proc, uint64_t addr,
                                          uint64_t max_len = 4096);

    /** Kill a process (fault/violation path). */
    void kill_process(Process &proc, DeathCause cause, int64_t code);

  protected:
    /** Handle one ltrap syscall; true if it completed (not blocked). */
    bool handle_syscall(Process &proc);

    /**
     * Block the calling process on `queues` until an explicit wakeup,
     * with an optional timed wake at `wake` (cycles, ~0 = none). The
     * return value is the std::nullopt a dispatch case returns.
     */
    std::optional<int64_t>
    block_on(Process &proc, uint64_t wake,
             const std::vector<WaitQueue *> &queues);

    /** Detach a process from every wait queue it joined. */
    void detach_waits(Process &proc);

    /** Schedule one retry dispatch for a blocked process. */
    void mark_wake_pending(Process &proc);

    /** Arm the timer heap (and the process's wake_time) for `when`. */
    void arm_timer(Process &proc, uint64_t when);

    /** Pop every due timer, waking the processes they refer to. */
    void fire_due_timers();

    /** Timer-heap plumbing (lazy deletion + opportunistic compaction). */
    void timer_push(uint64_t when, int pid) const;
    void timer_pop() const;
    bool timer_entry_live(uint64_t when, int pid) const;
    void compact_timers_if_worthwhile() const;

    /**
     * Walk core `core`'s queue once in ascending pid order (pids <=
     * cap): retry each wake-pending pid, run one quantum of each
     * runnable one. Returns whether any quantum ran.
     */
    bool walk_core(int core, int cap);
    /**
     * The pid an idle core steals: the lowest runnable, not yet
     * visited pid of the most-loaded other queue (ties: lowest core
     * index), only when the victim has at least two such pids.
     * Returns -1 when there is nothing to steal.
     */
    int steal_pick(int core, int cap);
    /** One quantum + exit handling for a runnable process. */
    void run_one_quantum(Process &proc);

    /** Point the NetSim's event observers at this kernel. */
    void install_net_events();

    /**
     * Run one scheduling quantum of user code. When an AEX storm is
     * armed the quantum is sliced at injected-AEX boundaries (the
     * interpreter charges per instruction, so slicing itself is
     * invisible — only on_injected_aex() adds cost); when idle this
     * is exactly cpu->run(quantum_).
     */
    vm::CpuExit run_user_quantum(Process &proc);

    /** Dispatch by number; nullopt = would block (retry later). */
    std::optional<int64_t> dispatch(Process &proc, uint64_t num,
                                    const uint64_t args[abi::kSyscallArgs]);

    SimClock *clock_;
    host::HostFileStore *binaries_;
    host::NetSim *net_;
    std::map<int, std::unique_ptr<Process>> procs_;
    std::map<int, DeathRecord> reaped_;
    int next_pid_ = 1;
    uint64_t quantum_ = 20000;
    /** Instructions until the next injected AEX, per core (storms). */
    std::vector<uint64_t> aex_countdown_ = {0};
    std::string console_;
    KernelStats stats_;
    /** Registry-backed metrics (registered in the constructor). */
    trace::Counter *ctr_syscalls_;
    trace::Counter *ctr_spawns_;
    trace::Counter *ctr_faults_;
    trace::Histogram *hist_syscall_cycles_;
    trace::Counter *ctr_wakeups_;
    trace::Counter *ctr_wasted_retries_;
    /** Wake-pending retries pushed to the next round because the SIP
     *  already ran a stolen quantum this round. */
    trace::Counter *ctr_deferred_retries_;
    trace::Counter *ctr_poll_calls_;
    trace::Counter *ctr_sched_visits_;
    trace::Counter *ctr_epoll_waits_;
    /** Processes whose blocked syscall should be retried. */
    bool any_progress_ = false;
    /** Reused read/write bounce buffer (grows to the largest I/O). */
    Bytes io_scratch_;

    /**
     * Per-core scheduling walks: runnable pids plus wake-pending
     * blocked pids, visited in ascending order, one set per core
     * (exactly one set when cores == 1 — the classic single walk).
     * Membership is always by home core; blocked processes leave the
     * set, so idle connections cost zero dispatches per round.
     */
    std::vector<std::set<int>> run_queues_{1};

    /** The home-core queue a pid is (or would be) enqueued on. */
    std::set<int> &home_queue(const Process &proc)
    {
        return run_queues_[proc.home_core];
    }

    // ---- cores ------------------------------------------------------
    int num_cores_ = 1;
    int current_core_ = 0;
    /** Monotonic round counter stamping Process::ran_round. */
    uint64_t round_seq_ = 0;
    /** Per-core metrics, registered by set_cores when cores > 1. */
    struct CoreCounters {
        trace::Counter *quanta = nullptr;
        trace::Counter *steals = nullptr;
        trace::Counter *wakeups = nullptr;
    };
    std::vector<CoreCounters> core_ctrs_;

    /** Pids in the order they died (determinism fingerprint). */
    std::vector<int> death_order_;

    /**
     * Min-heap of (wake_time, pid) timed waits, replacing the
     * O(procs) next_wake_time() scan. Lazy deletion: an entry is live
     * iff the pid is still blocked, not wake-pending, and its
     * wake_time equals the entry's (stale entries pop harmlessly).
     * timer_dead_ counts entries known to be stale; once they
     * dominate, compact_timers() rebuilds the heap from the live
     * entries — without it a poll/epoll timeout re-armed and
     * cancelled in a loop grows the heap without bound (every re-arm
     * pushes, the cancelled entry is far in the future and never
     * reaches the top to be pruned). Mutable so next_wake_time() can
     * prune dead entries.
     */
    mutable std::vector<std::pair<uint64_t, int>> timers_;
    mutable uint64_t timer_dead_ = 0;

    /** waitpid(pid) wait queues, keyed by the awaited pid. */
    std::map<int, WaitQueue> pid_waiters_;

    /**
     * Live sockets for NetSim events: slot [id][at_server] holds the
     * socket open on that end of connection `id`, or null. NetSim
     * hands out connection ids densely from 1, so this is a direct
     * index, not a search.
     */
    std::vector<std::array<FileObject *, 2>> socket_registry_;
    /** The socket on one end of `conn`, or null. */
    FileObject *socket_at(const host::NetSim::Connection *conn,
                          bool at_server) const;
    /** Live listeners by port, for NetSim connect events. */
    std::map<uint16_t, FileObject *> listener_registry_;

  public:
    /** Registry maintenance, called from file-object close paths. */
    void register_socket(host::NetSim::Connection *conn, bool at_server,
                         FileObject *file);
    void socket_closed(host::NetSim::Connection *conn, bool at_server);
    void listener_closed(uint16_t port);
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_KERNEL_H
