#include "oskit/kernel.h"

#include <algorithm>

#include "base/log.h"
#include "oskit/epoll.h"
#include "faultsim/faultsim.h"
#include "trace/trace.h"

namespace occlum::oskit {

using abi::Sys;

namespace {

int64_t
neg_errno(ErrorCode code)
{
    return -static_cast<int64_t>(code);
}

/**
 * A descriptor leaving the fd table must also leave the epoll world:
 * a non-epoll fd is auto-removed from every interest list (Linux
 * semantics — a dead descriptor must not keep producing events), and
 * dropping the last descriptor of an epoll object removes it from
 * the process's epoll roster (a stale roster entry dangles once the
 * shared_ptr destroys the object). Shared by kClose and kDup2 —
 * dup2's implicit close used to skip both steps, so a watched fd
 * replaced by dup2 kept reporting events for the old file, and
 * dup2 over the last fd of an epoll left a freed pointer behind.
 */
void
epoll_fd_dropped(Process &proc, int fd, const FilePtr &file)
{
    if (auto *ep = dynamic_cast<EpollObject *>(file.get())) {
        bool still_open =
            std::any_of(proc.fds.begin(), proc.fds.end(),
                        [ep](const FilePtr &f) { return f.get() == ep; });
        if (!still_open) {
            auto &eps = proc.epolls;
            eps.erase(std::remove(eps.begin(), eps.end(), ep),
                      eps.end());
        }
    } else {
        for (EpollObject *ep : proc.epolls) {
            ep->forget_fd(fd);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// user-memory helpers
// ---------------------------------------------------------------------

Status
Kernel::validate_user_range(Process &proc, uint64_t addr, uint64_t len)
{
    if (len == 0) {
        return Status();
    }
    if (addr + len < addr || !proc.space->is_mapped(addr, len)) {
        return Status(ErrorCode::kFault, "bad user pointer");
    }
    return Status();
}

Status
Kernel::copy_from_user(Process &proc, uint64_t addr, void *out,
                       uint64_t len)
{
    if (len == 0) {
        return Status();
    }
    OCC_RETURN_IF_ERROR(validate_user_range(proc, addr, len));
    // All-or-nothing: probe the whole range before touching a byte.
    // A personality's validate override may only check region bounds
    // (Occlum checks [d_begin, d_end)), and the raw accessors fault
    // mid-copy at the first unmapped page — which for copies *out*
    // would leave a half-filled kernel buffer treated as valid.
    if (addr + len < addr || !proc.space->is_mapped(addr, len)) {
        return Status(ErrorCode::kFault, "copy_from_user: unmapped");
    }
    if (proc.space->read_raw(addr, out, len) != vm::AccessFault::kNone) {
        return Status(ErrorCode::kFault, "copy_from_user fault");
    }
    return Status();
}

Status
Kernel::copy_to_user(Process &proc, uint64_t addr, const void *in,
                     uint64_t len)
{
    if (len == 0) {
        return Status();
    }
    OCC_RETURN_IF_ERROR(validate_user_range(proc, addr, len));
    // All-or-nothing: a multi-page write_raw modifies every page up
    // to the first unmapped one before faulting, so without this
    // probe a syscall that returns EFAULT would still have partially
    // scribbled over user memory (observable page-boundary partial
    // copies — found by the faultsim crash-monkey).
    if (addr + len < addr || !proc.space->is_mapped(addr, len)) {
        return Status(ErrorCode::kFault, "copy_to_user: unmapped");
    }
    if (proc.space->write_raw(addr, in, len) != vm::AccessFault::kNone) {
        return Status(ErrorCode::kFault, "copy_to_user fault");
    }
    return Status();
}

Result<std::string>
Kernel::read_user_string(Process &proc, uint64_t addr, uint64_t len)
{
    if (len > 65536) {
        return Error(ErrorCode::kNameTooLong, "string too long");
    }
    std::string out(len, '\0');
    OCC_RETURN_IF_ERROR(copy_from_user(proc, addr, out.data(), len));
    return out;
}

Result<std::string>
Kernel::read_user_cstring(Process &proc, uint64_t addr, uint64_t max_len)
{
    // Clamp: a hostile max_len must not become an unbounded kernel
    // loop or allocation (same ceiling as read_user_string; the old
    // code trusted the caller's bound unchecked).
    max_len = std::min<uint64_t>(max_len, 65536);
    std::string out;
    char buf[256];
    uint64_t pos = addr;
    while (out.size() < max_len) {
        // Chunked, never crossing a page boundary in one probe.
        uint64_t chunk = std::min<uint64_t>(
            std::min<uint64_t>(max_len - out.size(), sizeof(buf)),
            vm::kPageSize - (pos & vm::kPageMask));
        if (copy_from_user(proc, pos, buf, chunk).ok()) {
            for (uint64_t i = 0; i < chunk; ++i) {
                if (buf[i] == '\0') {
                    out.append(buf, i);
                    return out;
                }
            }
            out.append(buf, chunk);
            pos += chunk;
            continue;
        }
        // The full chunk is not accessible (region edge, unmapped
        // tail): fall back to byte-at-a-time, which preserves the
        // semantics that bytes past the terminator need not exist.
        for (uint64_t i = 0; i < chunk && out.size() < max_len; ++i) {
            char c = 0;
            OCC_RETURN_IF_ERROR(copy_from_user(proc, pos + i, &c, 1));
            if (c == '\0') {
                return out;
            }
            out.push_back(c);
        }
        pos += chunk;
    }
    return Error(ErrorCode::kNameTooLong, "unterminated string");
}

// ---------------------------------------------------------------------
// process lifecycle
// ---------------------------------------------------------------------

Result<int>
Kernel::spawn(const std::string &path, const std::vector<std::string> &argv,
              int parent_pid, const std::array<int64_t, 3> *stdio_fds)
{
    auto created = create_process(path, argv);
    if (!created.ok()) {
        return created.error();
    }
    std::unique_ptr<Process> proc = created.take();
    proc->pid = next_pid_++;
    proc->argv = argv;

    // stdio: inherit from the parent per the fd map, else console.
    Process *parent = nullptr;
    if (parent_pid >= 0) {
        auto it = procs_.find(parent_pid);
        if (it != procs_.end()) {
            parent = it->second.get();
        }
    }
    auto console = std::make_shared<Console>(&console_);
    for (int i = 0; i < 3; ++i) {
        FilePtr file;
        int64_t mapped = stdio_fds ? (*stdio_fds)[i] : -1;
        if (parent && mapped >= 0) {
            if (!parent->file_at(mapped)) {
                return Error(ErrorCode::kBadF, "spawn: bad stdio fd");
            }
            file = parent->fds[static_cast<size_t>(mapped)];
        } else if (parent && parent->file_at(i)) {
            file = parent->fds[static_cast<size_t>(i)];
        } else {
            file = console;
        }
        file->on_fd_acquire();
        proc->install_fd(i, std::move(file));
    }

    int pid = proc->pid;
    // Fixed home-core rule: pid % cores, for the process's lifetime.
    proc->home_core = pid % num_cores_;
    // Expose the pid through the PCB if the personality mapped one.
    if (proc->d_begin != 0) {
        uint64_t pid64 = static_cast<uint64_t>(pid);
        proc->space->write_raw(proc->d_begin + abi::kPcbPid, &pid64, 8);
    }
    run_queues_[proc->home_core].insert(pid);
    procs_.emplace(pid, std::move(proc));
    ++stats_.spawns;
    ctr_spawns_->add();
    OCC_TRACE_INSTANT(kSched, "proc.spawn",
                      static_cast<uint64_t>(pid));
    any_progress_ = true;
    return pid;
}

void
Kernel::kill_process(Process &proc, DeathCause cause, int64_t code)
{
    if (proc.state == ProcState::kDead) {
        return;
    }
    proc.state = ProcState::kDead;
    proc.death = cause;
    proc.exit_code = code;
    detach_waits(proc);
    if (proc.wake_time != ~0ull && !proc.wake_pending) {
        ++timer_dead_; // the armed heap entry just went stale
    }
    proc.wake_pending = false;
    proc.wake_time = ~0ull; // invalidates any armed timers
    home_queue(proc).erase(proc.pid);
    // Release fds so pipe peers see EOF / EPIPE (the release hooks
    // wake any peers blocked on the other end).
    for (const FilePtr &file : proc.fds) {
        if (file) {
            file->on_fd_release(*this);
        }
    }
    proc.fds.clear();
    proc.fds.shrink_to_fit();
    proc.epolls.clear();
    proc.fd_scan_hint = 0;
    // Wake waitpid() callers parked on this pid.
    auto wit = pid_waiters_.find(proc.pid);
    if (wit != pid_waiters_.end()) {
        wake_queue(wit->second, clock_->cycles());
        pid_waiters_.erase(wit);
    }

    DeathRecord record;
    record.cause = cause;
    record.code = code;
    record.fault = proc.last_fault;
    record.fault_addr = proc.last_fault_addr;
    reaped_[proc.pid] = record;
    if (cause == DeathCause::kFault || cause == DeathCause::kPrivileged) {
        ++stats_.faults;
        ctr_faults_->add();
    }
    OCC_TRACE_INSTANT(kSched, "proc.death",
                      static_cast<uint64_t>(proc.pid));
    death_order_.push_back(proc.pid);
    // The record outlives the process (exit code, death record), its
    // CPU and memory do not. Drop the CPU before the personality frees
    // the memory it runs on (EIP: the whole enclave).
    proc.cpu = nullptr;
    proc.owned_cpu.reset();
    destroy_process(proc);
    proc.space = nullptr;
    proc.owned_space.reset();
    any_progress_ = true;
}

Result<int64_t>
Kernel::exit_code(int pid) const
{
    auto it = reaped_.find(pid);
    if (it == reaped_.end()) {
        return Error(ErrorCode::kSrch, "pid not dead/known");
    }
    return it->second.code;
}

Result<DeathRecord>
Kernel::death_record(int pid) const
{
    auto it = reaped_.find(pid);
    if (it == reaped_.end()) {
        return Error(ErrorCode::kSrch, "pid not dead/known");
    }
    return it->second;
}

const Process *
Kernel::find_process(int pid) const
{
    auto it = procs_.find(pid);
    if (it == procs_.end() || it->second->state == ProcState::kDead) {
        return nullptr;
    }
    return it->second.get();
}

const Process *
Kernel::find_record(int pid) const
{
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
}

bool
Kernel::all_exited() const
{
    for (const auto &[pid, proc] : procs_) {
        if (proc->state != ProcState::kDead) {
            return false;
        }
    }
    return true;
}

uint64_t
Kernel::next_wake_time() const
{
    // Heap peek with lazy pruning, replacing the O(procs) scan over
    // every blocked process. An entry is live iff its pid is still
    // blocked, not already wake-pending, and its wake_time matches.
    while (!timers_.empty()) {
        auto [when, pid] = timers_.front();
        if (timer_entry_live(when, pid)) {
            return when;
        }
        timer_pop();
    }
    return ~0ull;
}

// ---------------------------------------------------------------------
// timer heap
// ---------------------------------------------------------------------

bool
Kernel::timer_entry_live(uint64_t when, int pid) const
{
    auto it = procs_.find(pid);
    if (it == procs_.end()) {
        return false;
    }
    const Process &proc = *it->second;
    return proc.state == ProcState::kBlocked && !proc.wake_pending &&
           proc.wake_time == when;
}

void
Kernel::timer_push(uint64_t when, int pid) const
{
    timers_.emplace_back(when, pid);
    std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
}

void
Kernel::timer_pop() const
{
    // Popping the top only ever removes a stale entry here or a
    // just-consumed one in fire_due_timers; either way the entry no
    // longer counts toward the dead backlog.
    if (!timer_entry_live(timers_.front().first,
                          timers_.front().second) &&
        timer_dead_ > 0) {
        --timer_dead_;
    }
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
    timers_.pop_back();
}

void
Kernel::compact_timers_if_worthwhile() const
{
    // Opportunistic compaction: once stale entries are both numerous
    // and the majority, rebuild the heap from the live ones. Without
    // this, a timeout re-armed and cancelled in a loop (poll with a
    // far deadline, woken early by data, every iteration) leaks one
    // far-future entry per iteration: it never reaches the top, so
    // lazy pruning never sees it. Compaction only drops entries the
    // liveness predicate already ignores, so wake order, cycle
    // streams, and BENCH output are untouched.
    constexpr size_t kMinDead = 64;
    if (timer_dead_ < kMinDead || timer_dead_ * 2 < timers_.size()) {
        return;
    }
    std::erase_if(timers_, [this](const std::pair<uint64_t, int> &e) {
        return !timer_entry_live(e.first, e.second);
    });
    std::make_heap(timers_.begin(), timers_.end(), std::greater<>());
    timer_dead_ = 0;
}

// ---------------------------------------------------------------------
// wait queues and wakeups
// ---------------------------------------------------------------------

Kernel::~Kernel()
{
    // Detach every process from every wait queue while both sides are
    // still alive; plain member destruction would otherwise have
    // queue destructors chasing back-pointers into freed processes.
    for (auto &[pid, proc] : procs_) {
        detach_waits(*proc);
    }
    if (net_) {
        net_->set_events({});
    }
}

void
Kernel::install_net_events()
{
    if (!net_) {
        return;
    }
    host::NetSim::Events events;
    events.on_data = [this](host::NetSim::Connection *conn,
                            bool to_server, uint64_t when) {
        if (FileObject *sock = socket_at(conn, to_server)) {
            wake_queue(sock->read_waiters(), when);
        }
    };
    events.on_connect = [this](uint16_t port, uint64_t when) {
        auto it = listener_registry_.find(port);
        if (it != listener_registry_.end()) {
            wake_queue(it->second->read_waiters(), when);
        }
    };
    events.on_close = [this](host::NetSim::Connection *conn,
                             bool closed_by_server) {
        // The side still open sees EOF (and EPIPE on write) now.
        if (FileObject *sock = socket_at(conn, !closed_by_server)) {
            uint64_t now = clock_->cycles();
            wake_queue(sock->read_waiters(), now);
            wake_queue(sock->write_waiters(), now);
        }
    };
    net_->set_events(std::move(events));
}

FileObject *
Kernel::socket_at(const host::NetSim::Connection *conn,
                  bool at_server) const
{
    size_t id = static_cast<size_t>(conn->id);
    return id < socket_registry_.size() ? socket_registry_[id][at_server]
                                        : nullptr;
}

void
Kernel::register_socket(host::NetSim::Connection *conn, bool at_server,
                        FileObject *file)
{
    size_t id = static_cast<size_t>(conn->id);
    if (id >= socket_registry_.size()) {
        socket_registry_.resize(id + 1);
    }
    socket_registry_[id][at_server] = file;
}

void
Kernel::socket_closed(host::NetSim::Connection *conn, bool at_server)
{
    socket_registry_[static_cast<size_t>(conn->id)][at_server] = nullptr;
}

void
Kernel::listener_closed(uint16_t port)
{
    listener_registry_.erase(port);
}

void
Kernel::detach_waits(Process &proc)
{
    for (WaitQueue *queue : proc.waiting_on) {
        queue->remove(&proc);
    }
    proc.waiting_on.clear();
}

void
Kernel::mark_wake_pending(Process &proc)
{
    if (proc.state != ProcState::kBlocked || proc.wake_pending) {
        return;
    }
    detach_waits(proc);
    proc.wake_pending = true;
    // Invalidate any armed timers (the heap's lazy deletion keys off
    // wake_time matching the entry).
    if (proc.wake_time != ~0ull) {
        ++timer_dead_;
    }
    proc.wake_time = ~0ull;
    // The woken pid lands on its home core's queue — wakeups cross
    // cores with no routing decision because membership is by home.
    home_queue(proc).insert(proc.pid);
    ctr_wakeups_->add();
    if (num_cores_ > 1) {
        core_ctrs_[proc.home_core].wakeups->add();
    }
    OCC_TRACE_INSTANT(kSched, "sched.wake",
                      static_cast<uint64_t>(proc.pid));
}

void
Kernel::arm_timer(Process &proc, uint64_t when)
{
    if (when >= proc.wake_time) {
        return; // no timer, or an earlier one is already armed
    }
    if (proc.wake_time != ~0ull) {
        ++timer_dead_; // the superseded entry just went stale
    }
    proc.wake_time = when;
    timer_push(when, proc.pid);
    compact_timers_if_worthwhile();
}

void
Kernel::notify_watches(WaitQueue &queue, uint64_t when)
{
    // Copy: on_source_event recursively wake_queue()s the epoll's own
    // read waiters, and a parent epoll watching that queue may mutate
    // its watch list while we iterate.
    std::vector<EpollWatch *> watches = queue.watches();
    for (EpollWatch *watch : watches) {
        watch->epoll->on_source_event(*this, watch->fd, when);
    }
}

void
Kernel::wake_queue(WaitQueue &queue, uint64_t when)
{
    // Epoll subscriptions ride every notification a queue would
    // deliver to waiters: the event moves the fd onto the watching
    // epoll's ready list whether or not anyone is blocked right now.
    if (!queue.watches().empty()) {
        notify_watches(queue, when);
    }
    if (queue.empty()) {
        return;
    }
    if (when <= clock_->cycles()) {
        for (Process *proc : queue.take()) {
            mark_wake_pending(*proc);
        }
        return;
    }
    // Future event (in-flight network data): arm timers but leave the
    // waiters queued, so an earlier event can still wake them.
    for (Process *proc : queue.peek()) {
        arm_timer(*proc, when);
    }
}

void
Kernel::fire_due_timers()
{
    uint64_t now = clock_->cycles();
    while (!timers_.empty() && timers_.front().first <= now) {
        auto [when, pid] = timers_.front();
        bool live = timer_entry_live(when, pid);
        timer_pop();
        if (live) {
            // The entry is consumed with the pop, so clear wake_time
            // first — mark_wake_pending would otherwise count it as
            // a stale entry still sitting in the heap.
            Process &proc = *procs_.find(pid)->second;
            proc.wake_time = ~0ull;
            mark_wake_pending(proc);
        }
    }
}

std::optional<int64_t>
Kernel::block_on(Process &proc, uint64_t wake,
                 const std::vector<WaitQueue *> &queues)
{
    for (WaitQueue *queue : queues) {
        if (std::find(proc.waiting_on.begin(), proc.waiting_on.end(),
                      queue) == proc.waiting_on.end()) {
            queue->add(&proc);
            proc.waiting_on.push_back(queue);
        }
    }
    arm_timer(proc, wake);
    // Off the scheduling walk until an explicit wakeup: this is the
    // whole point — an idle connection costs zero dispatches.
    home_queue(proc).erase(proc.pid);
    return std::nullopt;
}

// ---------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------

vm::CpuExit
Kernel::run_user_quantum(Process &proc)
{
    uint64_t period = faultsim::FaultSim::instance().aex_period();
    if (period == 0) {
        // Idle path: must stay literally the pre-faultsim code so the
        // simulated cycle stream is bit-identical when no plan is set.
        return proc.cpu->run(quantum_);
    }
    // AEX storm armed: slice the quantum at injected-AEX boundaries.
    // The interpreter charges per instruction, so the slicing itself
    // is invisible in the cycle stream — only on_injected_aex() (SSA
    // save/restore + AEX/ERESUME transition costs) adds cycles. Each
    // core keeps its own countdown: an AEX interrupts one hardware
    // thread, not the whole package.
    uint64_t &countdown = aex_countdown_[current_core_];
    if (countdown == 0) {
        countdown = period;
    }
    uint64_t budget = quantum_;
    vm::CpuExit exit;
    for (;;) {
        uint64_t slice = std::min(budget, countdown);
        uint64_t before = proc.cpu->instructions();
        exit = proc.cpu->run(slice);
        uint64_t ran = proc.cpu->instructions() - before;
        budget -= std::min(budget, ran);
        countdown -= std::min(countdown, ran);
        if (countdown == 0) {
            on_injected_aex(proc);
            // Consume a pending aex_at one-shot (the ordinal has
            // passed even when on_injected_aex is a no-op, as in the
            // Linux baseline) and re-read the period: after the
            // one-shot the periodic storm (if any) takes over.
            faultsim::FaultSim::instance().mark_injected_aex();
            period = faultsim::FaultSim::instance().aex_period();
            if (proc.state == ProcState::kDead) {
                return exit;
            }
            if (period == 0) {
                // One-shot consumed, no storm behind it: finish the
                // quantum unsliced.
                if (exit.kind != vm::ExitKind::kInstrBudget ||
                    budget == 0) {
                    return exit;
                }
                return proc.cpu->run(budget);
            }
            countdown = period;
        }
        if (exit.kind != vm::ExitKind::kInstrBudget || budget == 0) {
            return exit;
        }
    }
}

void
Kernel::run_one_quantum(Process &proc)
{
    ctr_sched_visits_->add();
    // Runnable: execute a quantum. The span covers the charge so
    // its duration equals the cycles the SIP's code consumed.
    uint64_t before_cycles = proc.cpu->cycles();
    uint64_t before_instrs = proc.cpu->instructions();
    vm::CpuExit exit;
    {
        OCC_TRACE_SPAN(kVm, "cpu.quantum",
                       static_cast<uint64_t>(proc.pid));
        exit = run_user_quantum(proc);
        charge(proc.cpu->cycles() - before_cycles);
    }
    stats_.user_instructions +=
        proc.cpu->instructions() - before_instrs;
    if (proc.cpu->instructions() != before_instrs) {
        any_progress_ = true;
    }

    switch (exit.kind) {
      case vm::ExitKind::kInstrBudget:
        break;
      case vm::ExitKind::kLtrap: {
        // Pop the return address pushed by the user's call into
        // the trampoline and validate it (paper §6).
        uint64_t ret = 0;
        uint64_t sp = proc.cpu->sp();
        if (proc.space->read_raw(sp, &ret, 8) !=
            vm::AccessFault::kNone) {
            proc.last_fault = vm::FaultKind::kPageFault;
            proc.last_fault_addr = sp;
            kill_process(proc, DeathCause::kFault, -1);
            break;
        }
        proc.cpu->set_sp(sp + 8);
        Status valid = validate_syscall_return(proc, ret);
        if (!valid.ok()) {
            proc.last_fault = vm::FaultKind::kBoundRange;
            proc.last_fault_addr = ret;
            kill_process(proc, DeathCause::kFault, -1);
            break;
        }
        proc.in_syscall = true;
        proc.sys_num = proc.cpu->reg(0);
        for (int i = 0; i < abi::kSyscallArgs; ++i) {
            proc.sys_args[i] = proc.cpu->reg(1 + i);
        }
        proc.sys_ret_addr = ret;
        proc.sys_deadline = ~0ull; // computed by timed syscalls
        ++stats_.syscalls;
        ctr_syscalls_->add();
        uint64_t sys_begin = clock_->cycles();
        {
            OCC_TRACE_SPAN(kLibos, abi::sys_name(proc.sys_num),
                           static_cast<uint64_t>(proc.pid));
            charge(syscall_cost());
            handle_syscall(proc);
        }
        // Cycles of the initial dispatch round (blocked retries
        // are traced but not re-recorded here).
        hist_syscall_cycles_->record(clock_->cycles() - sys_begin);
        break;
      }
      case vm::ExitKind::kPrivileged:
        proc.last_fault = vm::FaultKind::kInvalidInstr;
        proc.last_fault_addr = exit.rip;
        kill_process(proc, DeathCause::kPrivileged, -2);
        break;
      case vm::ExitKind::kFault:
        proc.last_fault = exit.fault;
        proc.last_fault_addr = exit.fault_addr;
        kill_process(proc, DeathCause::kFault, -1);
        break;
    }
}

bool
Kernel::walk_core(int core, int cap)
{
    // The walk visits runnable and wake-pending pids in ascending
    // order. A woken process is dispatched at exactly the walk slot
    // where the old retry-polling scheduler's retry would have
    // succeeded (failed retries charged zero cycles), so the
    // simulated cycle stream is unchanged. Processes spawned during
    // the round first run next round, as they did when the walk
    // iterated a pid snapshot taken at round start. (Spawns cannot
    // land *below* the resume cursor: pids are strictly monotonic,
    // so every new pid is above cap.)
    std::set<int> &queue = run_queues_[core];
    bool ran_quantum = false;
    int last = 0; // pids start at 1
    for (;;) {
        auto rit = queue.upper_bound(last);
        if (rit == queue.end() || *rit > cap) {
            break;
        }
        int pid = *rit;
        last = pid;
        auto it = procs_.find(pid);
        if (it == procs_.end()) {
            queue.erase(pid);
            continue;
        }
        Process &proc = *it->second;
        if (proc.state == ProcState::kDead) {
            queue.erase(pid);
            continue;
        }
        if (proc.state == ProcState::kBlocked && !proc.wake_pending) {
            // Stale entry (the process blocked after joining the
            // walk); it leaves until an explicit wakeup.
            queue.erase(pid);
            continue;
        }
        if (proc.ran_round == round_seq_) {
            // An earlier core stole this SIP this round. If runnable,
            // it already had its quantum. If wake-pending, its stolen
            // quantum blocked and a later wake landed here: retrying
            // now would complete the syscall on this core's timeline,
            // which rewound to the round start, overlapping the SIP's
            // own quantum in simulated time. Keep wake_pending set
            // and retry next round instead.
            if (proc.wake_pending) {
                ctr_deferred_retries_->add();
            }
            continue;
        }
        proc.ran_round = round_seq_;
        if (proc.state == ProcState::kBlocked) {
            proc.wake_pending = false;
            ctr_sched_visits_->add();
            // Retry the in-flight syscall.
            {
                OCC_TRACE_SPAN(kLibos, abi::sys_name(proc.sys_num),
                               static_cast<uint64_t>(pid));
                if (handle_syscall(proc)) {
                    any_progress_ = true;
                } else {
                    ctr_wasted_retries_->add();
                }
            }
            fire_due_timers();
            continue;
        }
        ran_quantum = true;
        if (num_cores_ > 1) {
            core_ctrs_[core].quanta->add();
        }
        run_one_quantum(proc);
        // Quanta advance the clock; timers that came due mid-round
        // wake their processes before the walk reaches their pid, the
        // same slot the old per-round retry would have succeeded at.
        fire_due_timers();
    }
    return ran_quantum;
}

void
Kernel::set_cores(int cores)
{
    cores = std::max(1, std::min(cores, 64));
    if (cores == num_cores_) {
        return;
    }
    // Home cores are fixed at spawn; changing the modulus after any
    // spawn would strand pids on queues that no longer exist (or
    // violate the home-core invariant), so the topology is only
    // configurable on an empty process table.
    OCC_CHECK_MSG(procs_.empty() && next_pid_ == 1,
                  "set_cores must run before the first spawn");
    num_cores_ = cores;
    run_queues_.assign(static_cast<size_t>(cores), {});
    aex_countdown_.assign(static_cast<size_t>(cores), 0);
    core_ctrs_.clear();
    if (cores > 1) {
        // Per-core metrics exist only in SMP mode, so a cores=1 run
        // registers exactly the counters it always has (benches that
        // dump the registry stay bit-identical).
        for (int c = 0; c < cores; ++c) {
            std::string prefix = "kernel.core" + std::to_string(c);
            CoreCounters ctrs;
            ctrs.quanta = &trace::Registry::instance().counter(
                prefix + ".quanta");
            ctrs.steals = &trace::Registry::instance().counter(
                prefix + ".steals");
            ctrs.wakeups = &trace::Registry::instance().counter(
                prefix + ".wakeups");
            core_ctrs_.push_back(ctrs);
        }
    }
}

int
Kernel::steal_pick(int core, int cap)
{
    // Eligible: runnable and not yet visited this round. Every pid an
    // earlier core walked is stamped, so steals come from later cores.
    auto eligible = [&](int pid) {
        auto it = procs_.find(pid);
        return it != procs_.end() &&
               it->second->state == ProcState::kRunnable &&
               it->second->ran_round != round_seq_;
    };
    // Victim = the most-loaded other core (eligible pids only; ties to
    // the lowest core index), and only when it has at least two
    // eligible pids — taking a lone pid would just migrate work
    // without adding parallelism. The stolen pid is the victim's
    // lowest eligible (it waited longest at the bottom of an
    // over-long queue).
    int victim = -1;
    int victim_count = 1;
    for (int other = 0; other < num_cores_; ++other) {
        // The eligible count never exceeds the queue size, so a queue
        // no longer than the best count so far cannot beat it.
        if (other == core || run_queues_[other].size() <=
                                 static_cast<size_t>(victim_count)) {
            continue;
        }
        int count = 0;
        for (int pid : run_queues_[other]) {
            if (pid > cap) {
                break;
            }
            if (eligible(pid)) {
                ++count;
            }
        }
        if (count > victim_count) {
            victim_count = count;
            victim = other;
        }
    }
    if (victim < 0) {
        return -1;
    }
    for (int pid : run_queues_[victim]) {
        if (pid > cap) {
            break;
        }
        if (eligible(pid)) {
            return pid;
        }
    }
    return -1;
}

bool
Kernel::step_round()
{
    OCC_TRACE_SPAN(kSched, "sched.round");
    any_progress_ = false;
    fire_due_timers();
    ++round_seq_;
    // Round barrier: every core walks its own queue from the same
    // start time; the clock then advances to the slowest core's end
    // time. Cores therefore run in parallel in simulated time while
    // the host executes them sequentially in core order — completion
    // order is a pure function of (seed, plan, cores). With one core
    // the rewind and the barrier are no-ops: the round is one walk.
    const int cap = next_pid_ - 1; // spawns run next round
    const uint64_t round_start = clock_->cycles();
    uint64_t round_end = round_start;
    for (int core = 0; core < num_cores_; ++core) {
        current_core_ = core;
        clock_->set_cycles(round_start);
        // A core whose walk ran no quantum steals one.
        if (!walk_core(core, cap)) {
            int pid = steal_pick(core, cap);
            if (pid > 0) {
                Process &proc = *procs_.find(pid)->second;
                proc.ran_round = round_seq_;
                core_ctrs_[core].quanta->add();
                core_ctrs_[core].steals->add();
                OCC_TRACE_INSTANT(kSched, "sched.steal",
                                  static_cast<uint64_t>(pid));
                run_one_quantum(proc);
            }
        }
        round_end = std::max(round_end, clock_->cycles());
    }
    current_core_ = 0;
    clock_->set_cycles(round_end);
    fire_due_timers();
    return any_progress_;
}

void
Kernel::run(bool allow_idle)
{
    while (!all_exited()) {
        if (step_round()) {
            continue;
        }
        uint64_t wake = next_wake_time();
        if (wake != ~0ull && wake > clock_->cycles()) {
            OCC_TRACE_SPAN(kSched, "sched.idle");
            clock_->advance(wake - clock_->cycles());
            continue;
        }
        if (wake == ~0ull) {
            if (allow_idle) {
                return;
            }
            OCC_PANIC("kernel deadlock: all processes blocked forever");
        }
        // wake <= now but no progress: one more round handles it; if
        // this persists the predicates are wrong.
        if (!step_round()) {
            if (allow_idle) {
                return;
            }
            OCC_PANIC("kernel livelock: blocked with stale wake times");
        }
    }
}

// ---------------------------------------------------------------------
// syscalls
// ---------------------------------------------------------------------

bool
Kernel::handle_syscall(Process &proc)
{
    OCC_CHECK(proc.in_syscall);
    std::optional<int64_t> result =
        dispatch(proc, proc.sys_num, proc.sys_args);
    if (proc.state == ProcState::kDead) {
        return true; // exit() or killed during dispatch
    }
    if (!result) {
        proc.state = ProcState::kBlocked;
        return false;
    }
    proc.in_syscall = false;
    proc.state = ProcState::kRunnable;
    if (proc.wake_time != ~0ull) {
        ++timer_dead_; // completion invalidates any armed entry
    }
    proc.wake_time = ~0ull;
    proc.sys_deadline = ~0ull;
    home_queue(proc).insert(proc.pid);
    proc.cpu->set_reg(0, static_cast<uint64_t>(*result));
    proc.cpu->set_rip(proc.sys_ret_addr);
    return true;
}

std::optional<int64_t>
Kernel::dispatch(Process &proc, uint64_t num,
                 const uint64_t args[abi::kSyscallArgs])
{
    auto file_of = [&](uint64_t fd) -> FilePtr {
        return proc.file_at(static_cast<int64_t>(fd))
                   ? proc.fds[static_cast<size_t>(fd)]
                   : nullptr;
    };

    switch (static_cast<Sys>(num)) {
      case Sys::kExit:
        kill_process(proc, DeathCause::kExited,
                     static_cast<int64_t>(args[0]));
        return 0;

      case Sys::kWrite:
      case Sys::kRead:
      case Sys::kSockSend:
      case Sys::kSockRecv: {
        // Hot path: no FilePtr refcount traffic (the fd table entry
        // outlives the call) and a reused kernel bounce buffer
        // instead of a fresh zero-filled allocation per syscall.
        FileObject *file = proc.file_at(static_cast<int64_t>(args[0]));
        if (!file) return neg_errno(ErrorCode::kBadF);
        uint64_t buf = args[1];
        uint64_t len = std::min<uint64_t>(args[2], 1 << 20);
        Sys sys = static_cast<Sys>(num);
        bool is_write = sys == Sys::kWrite || sys == Sys::kSockSend;
        bool is_sock = sys == Sys::kSockSend || sys == Sys::kSockRecv;
        // read()/write() return 0 for len == 0 without touching the
        // file; the socket calls always reach the object (sock_send
        // pays the per-op network cost even for an empty payload).
        if (len == 0 && !is_sock) return 0;
        if (io_scratch_.size() < len) {
            io_scratch_.resize(len);
        }
        uint8_t *tmp = io_scratch_.data();
        if (is_write) {
            if (!copy_from_user(proc, buf, tmp, len).ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            IoResult r = file->write(*this, tmp, len);
            if (r.would_block) {
                return block_on(proc, r.wake_time,
                                {&file->write_waiters()});
            }
            if (r.value == neg_errno(ErrorCode::kPipe) &&
                file->epipe_kills()) {
                // POSIX delivers SIGPIPE here; the default action
                // kills the writer. Returning -EPIPE to a program
                // that retries in a loop used to deadlock run()
                // against allow_idle (the writer never blocks, never
                // exits). Kill with a SIGPIPE-shaped death record.
                // Sockets share this path: a send to a peer-closed
                // connection is the same default-fatal SIGPIPE.
                proc.last_fault = vm::FaultKind::kNone;
                kill_process(proc, DeathCause::kPipe, r.value);
                return r.value;
            }
            return r.value;
        }
        // Probe the destination before reading: pipe/socket reads are
        // destructive, so failing copy_to_user afterwards would
        // silently discard the consumed bytes. write_raw ignores
        // permission bits, so mapped == writable here.
        if (len > 0 &&
            (!validate_user_range(proc, buf, len).ok() ||
             buf + len < buf || !proc.space->is_mapped(buf, len))) {
            return neg_errno(ErrorCode::kFault);
        }
        IoResult r = file->read(*this, tmp, len);
        if (r.would_block) {
            return block_on(proc, r.wake_time,
                            {&file->read_waiters()});
        }
        if (r.value > 0) {
            if (!copy_to_user(proc, buf, tmp,
                              static_cast<uint64_t>(r.value))
                     .ok()) {
                return neg_errno(ErrorCode::kFault);
            }
        }
        return r.value;
      }

      case Sys::kOpen: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        int fd = proc.alloc_fd();
        if (fd < 0) return neg_errno(ErrorCode::kMFile);
        auto file = fs_open(proc, path.value(), args[2]);
        if (!file.ok()) return neg_errno(file.error().code);
        file.value()->on_fd_acquire();
        proc.install_fd(fd, file.take());
        return fd;
      }

      case Sys::kClose: {
        if (!proc.file_at(static_cast<int64_t>(args[0]))) {
            return neg_errno(ErrorCode::kBadF);
        }
        int fd = static_cast<int>(args[0]);
        FilePtr file = proc.fds[static_cast<size_t>(fd)]; // keep alive
        file->on_fd_release(*this);
        proc.fds[static_cast<size_t>(fd)].reset();
        proc.fd_closed(fd);
        epoll_fd_dropped(proc, fd, file);
        return 0;
      }

      case Sys::kSpawn: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        uint64_t argv_ptr = args[2];
        uint64_t argc = std::min<uint64_t>(args[3], 32);
        std::vector<std::string> argv;
        for (uint64_t i = 0; i < argc; ++i) {
            uint64_t str_ptr = 0;
            if (!copy_from_user(proc, argv_ptr + 8 * i, &str_ptr, 8)
                     .ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            auto arg = read_user_cstring(proc, str_ptr);
            if (!arg.ok()) return neg_errno(arg.error().code);
            argv.push_back(arg.take());
        }
        if (argv.empty()) {
            argv.push_back(path.value());
        }
        std::array<int64_t, 3> stdio = {-1, -1, -1};
        bool have_stdio = false;
        if (args[4] != 0) {
            int64_t raw[3];
            if (!copy_from_user(proc, args[4], raw, sizeof(raw)).ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            stdio = {raw[0], raw[1], raw[2]};
            have_stdio = true;
        }
        auto pid = this->spawn(path.value(), argv, proc.pid,
                               have_stdio ? &stdio : nullptr);
        if (!pid.ok()) return neg_errno(pid.error().code);
        return pid.value();
      }

      case Sys::kWaitPid: {
        int pid = static_cast<int>(args[0]);
        auto it = reaped_.find(pid);
        if (it != reaped_.end()) {
            return it->second.code;
        }
        if (pid == proc.pid || !procs_.count(pid)) {
            // Self-wait can never be satisfied (the caller would be
            // parked on its own death edge, forever); report "no
            // such child" like an unknown pid.
            return neg_errno(ErrorCode::kChild);
        }
        return block_on(proc, ~0ull, {&pid_waiters_[pid]});
      }

      case Sys::kGetPid:
        return proc.pid;

      case Sys::kPipe: {
        auto pipe = std::make_shared<Pipe>();
        auto read_end = std::make_shared<PipeEnd>(pipe, true);
        auto write_end = std::make_shared<PipeEnd>(pipe, false);
        // Install each end before allocating the next descriptor:
        // alloc_fd() hands out the lowest fd absent from the table,
        // so two back-to-back allocations would alias.
        int rfd = proc.alloc_fd();
        if (rfd < 0) return neg_errno(ErrorCode::kMFile);
        read_end->on_fd_acquire();
        proc.install_fd(rfd, read_end);
        int wfd = proc.alloc_fd();
        if (wfd < 0) {
            read_end->on_fd_release(*this);
            proc.fds[static_cast<size_t>(rfd)].reset();
            proc.fd_closed(rfd);
            return neg_errno(ErrorCode::kMFile);
        }
        write_end->on_fd_acquire();
        proc.install_fd(wfd, write_end);
        int64_t fds[2] = {rfd, wfd};
        if (!copy_to_user(proc, args[0], fds, sizeof(fds)).ok()) {
            // Linux's do_pipe2 cleanup: a failed copy-out uninstalls
            // both descriptors. Leaving them installed would leak two
            // fds the program never learned the numbers of.
            write_end->on_fd_release(*this);
            proc.fds[static_cast<size_t>(wfd)].reset();
            read_end->on_fd_release(*this);
            proc.fds[static_cast<size_t>(rfd)].reset();
            proc.fd_closed(rfd);
            return neg_errno(ErrorCode::kFault);
        }
        return 0;
      }

      case Sys::kDup2: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        // The whole 64-bit argument is range-checked: truncating it
        // to int first let dup2(fd, -1) install descriptor -1.
        int64_t target = static_cast<int64_t>(args[1]);
        if (target < 0 || target >= kMaxFds) {
            return neg_errno(ErrorCode::kBadF);
        }
        int newfd = static_cast<int>(target);
        if (static_cast<int64_t>(args[0]) == target) {
            // POSIX: dup2(fd, fd) is a no-op. The release-then-
            // acquire below would transiently drop the last pipe
            // reader/writer, delivering a spurious EOF/EPIPE wake to
            // a blocked peer.
            return newfd;
        }
        if (proc.file_at(newfd)) {
            // Implicit close: full kClose discipline minus the
            // fd_closed() hint rewind (the slot is reoccupied on the
            // next line, so everything below the hint stays taken).
            FilePtr doomed = proc.fds[static_cast<size_t>(newfd)];
            doomed->on_fd_release(*this);
            proc.fds[static_cast<size_t>(newfd)].reset();
            epoll_fd_dropped(proc, newfd, doomed);
        }
        file->on_fd_acquire();
        proc.install_fd(newfd, std::move(file));
        return newfd;
      }

      case Sys::kLseek: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        auto pos = file->seek(static_cast<int64_t>(args[1]),
                              static_cast<int>(args[2]));
        if (!pos.ok()) return neg_errno(pos.error().code);
        return pos.value();
      }

      case Sys::kUnlink: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        Status status = fs_unlink(path.value());
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kMkdir: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        Status status = fs_mkdir(path.value());
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kMmap: {
        // Linux-shaped: mmap(addr, len, prot, flags, fd, off). Only
        // anonymous private RW mappings exist in the model; the addr
        // hint is ignored (mappings come from the per-process bump
        // range). The full 6-register marshalling matters here: off
        // is argument six.
        constexpr uint64_t kMapAnonymous = 0x20;
        uint64_t prot = args[2];
        uint64_t flags = args[3];
        int64_t fd = static_cast<int64_t>(args[4]);
        uint64_t off = args[5];
        if (off & vm::kPageMask) return neg_errno(ErrorCode::kInval);
        if (!(flags & kMapAnonymous) || fd != -1 || off != 0) {
            // File-backed mappings are not part of the model.
            return neg_errno(ErrorCode::kNoSys);
        }
        if (prot & ~static_cast<uint64_t>(vm::kPermRW)) {
            // W^X inside the enclave: PROT_EXEC via mmap would let a
            // SIP forge unverified code pages.
            return neg_errno(ErrorCode::kPerm);
        }
        uint64_t len = (args[1] + vm::kPageMask) & ~vm::kPageMask;
        if (len == 0) return neg_errno(ErrorCode::kInval);
        uint64_t addr = (proc.mmap_cursor + vm::kPageMask) &
                        ~vm::kPageMask;
        if (addr + len > proc.mmap_end) {
            return neg_errno(ErrorCode::kNoMem);
        }
        // Domain/process memory is mapped eagerly at load time (the
        // SGX 1.0 preallocation, paper §6); mmap hands out ranges and
        // zero-fills them.
        if (!proc.space->is_mapped(addr, len)) {
            Status status = proc.space->map(addr, len, vm::kPermRW);
            if (!status.ok()) return neg_errno(status.code());
        } else {
            proc.space->zero_raw(addr, len);
        }
        charge(mmap_zero_cost(len));
        proc.mmap_cursor = addr + len;
        return static_cast<int64_t>(addr);
      }

      case Sys::kMunmap:
        // Bump allocation: a real free list is unnecessary for the
        // workloads; munmap succeeds without reclaiming.
        return 0;

      case Sys::kTime:
        return static_cast<int64_t>(clock_->nanos());

      case Sys::kKill: {
        auto it = procs_.find(static_cast<int>(args[0]));
        if (it == procs_.end() ||
            it->second->state == ProcState::kDead) {
            return neg_errno(ErrorCode::kSrch);
        }
        kill_process(*it->second, DeathCause::kKilled,
                     -static_cast<int64_t>(args[1]));
        return 0;
      }

      case Sys::kYield:
        return 0;

      case Sys::kFstatSize: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        int64_t size = file->size();
        if (size < 0) return neg_errno(ErrorCode::kInval);
        return size;
      }

      case Sys::kFsync: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        Status status = file->fsync(*this);
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kSockListen: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        uint16_t port = static_cast<uint16_t>(args[0]);
        int fd = proc.alloc_fd();
        if (fd < 0) return neg_errno(ErrorCode::kMFile);
        if (!net_->listen(port, static_cast<int>(args[1]))) {
            return neg_errno(ErrorCode::kBusy);
        }
        auto listener = std::make_shared<ListenerFile>(net_, port);
        listener->on_fd_acquire();
        listener_registry_[port] = listener.get();
        proc.install_fd(fd, std::move(listener));
        return fd;
      }

      case Sys::kSockAccept: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        FilePtr file = file_of(args[0]);
        auto *listener = dynamic_cast<ListenerFile *>(file.get());
        if (!listener) return neg_errno(ErrorCode::kBadF);
        // At the cap the connection stays queued on the listener.
        int fd = proc.alloc_fd();
        if (fd < 0) return neg_errno(ErrorCode::kMFile);
        host::NetSim::Connection *conn =
            net_->try_accept(listener->port(), clock_->cycles());
        if (!conn) {
            return block_on(proc,
                            net_->next_accept_time(listener->port()),
                            {&file->read_waiters()});
        }
        charge(CostModel::kNetAcceptCycles);
        auto sock = std::make_shared<SocketFile>(net_, conn, true);
        sock->on_fd_acquire();
        register_socket(conn, true, sock.get());
        proc.install_fd(fd, std::move(sock));
        return fd;
      }

      case Sys::kSockConnect: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        int fd = proc.alloc_fd();
        if (fd < 0) return neg_errno(ErrorCode::kMFile);
        auto conn = net_->connect(static_cast<uint16_t>(args[0]));
        if (!conn.ok()) return neg_errno(conn.error().code);
        auto sock = std::make_shared<SocketFile>(net_, conn.value(),
                                                 false);
        sock->on_fd_acquire();
        register_socket(conn.value(), false, sock.get());
        proc.install_fd(fd, std::move(sock));
        return fd;
      }

      case Sys::kPoll: {
        // poll(fds, nfds, timeout_ns): fds is an array of records of
        // three int64s {fd, events, revents}. timeout_ns < 0 waits
        // forever, 0 never blocks. The deadline is computed once, at
        // the first dispatch, so blocked retries do not slide it.
        constexpr uint64_t kMaxPollFds = 4096;
        uint64_t fds_ptr = args[0];
        uint64_t nfds = args[1];
        int64_t timeout_ns = static_cast<int64_t>(args[2]);
        if (nfds > kMaxPollFds) return neg_errno(ErrorCode::kInval);
        if (proc.sys_deadline == ~0ull && timeout_ns >= 0) {
            proc.sys_deadline =
                clock_->cycles() +
                static_cast<uint64_t>(static_cast<double>(timeout_ns) *
                                      (SimClock::kFrequencyHz / 1e9));
        }
        uint64_t bytes = nfds * abi::kPollRecordBytes;
        if (io_scratch_.size() < bytes) {
            io_scratch_.resize(bytes);
        }
        if (bytes > 0 &&
            !copy_from_user(proc, fds_ptr, io_scratch_.data(), bytes)
                 .ok()) {
            return neg_errno(ErrorCode::kFault);
        }
        int64_t *rec = reinterpret_cast<int64_t *>(io_scratch_.data());
        int64_t ready = 0;
        uint64_t min_event = ~0ull;
        std::vector<WaitQueue *> queues;
        for (uint64_t i = 0; i < nfds; ++i) {
            int64_t fd = rec[3 * i];
            int64_t events = rec[3 * i + 1];
            int64_t revents = 0;
            if (fd >= 0) { // POSIX: negative fds are skipped
                FileObject *pf = proc.file_at(fd);
                if (!pf) {
                    revents = abi::kPollNval;
                } else {
                    uint64_t bits = pf->poll_ready(*this);
                    // POLLERR/POLLHUP are always reported; POLLIN/
                    // POLLOUT only when requested.
                    revents =
                        static_cast<int64_t>(bits) &
                        (events | abi::kPollErr | abi::kPollHup);
                    if (revents == 0) {
                        if (events & abi::kPollIn) {
                            queues.push_back(&pf->read_waiters());
                        }
                        if (events & abi::kPollOut) {
                            queues.push_back(&pf->write_waiters());
                        }
                        min_event = std::min(min_event,
                                             pf->next_event_time(*this));
                    }
                }
            }
            rec[3 * i + 2] = revents;
            if (revents != 0) ++ready;
        }
        uint64_t now = clock_->cycles();
        bool timed_out =
            proc.sys_deadline != ~0ull && now >= proc.sys_deadline;
        if (ready > 0 || timed_out) {
            if (bytes > 0 &&
                !copy_to_user(proc, fds_ptr, rec, bytes).ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            ctr_poll_calls_->add();
            return ready;
        }
        return block_on(proc, std::min(proc.sys_deadline, min_event),
                        queues);
      }

      case Sys::kEpollCreate: {
        int fd = proc.alloc_fd();
        if (fd < 0) return neg_errno(ErrorCode::kMFile);
        auto ep = std::make_shared<EpollObject>();
        ep->on_fd_acquire();
        proc.epolls.push_back(ep.get());
        proc.install_fd(fd, std::move(ep));
        return fd;
      }

      case Sys::kEpollCtl: {
        // epoll_ctl(epfd, op, fd, events). Errors follow Linux: EBADF
        // for dead descriptors, EINVAL for a non-epoll epfd, EEXIST /
        // ENOENT / ELOOP from the interest-list operation itself.
        FilePtr epfile = file_of(args[0]);
        if (!epfile) return neg_errno(ErrorCode::kBadF);
        auto *ep = dynamic_cast<EpollObject *>(epfile.get());
        if (!ep) return neg_errno(ErrorCode::kInval);
        int fd = static_cast<int>(args[2]);
        FilePtr target = file_of(args[2]);
        if (!target) return neg_errno(ErrorCode::kBadF);
        uint64_t op = args[1];
        Result<int64_t> r = neg_errno(ErrorCode::kInval);
        if (op == abi::kEpollCtlAdd) {
            r = ep->add(*this, fd, target, args[3]);
        } else if (op == abi::kEpollCtlDel) {
            r = ep->remove(fd);
        } else if (op == abi::kEpollCtlMod) {
            r = ep->modify(*this, fd, args[3]);
        } else {
            return neg_errno(ErrorCode::kInval);
        }
        if (!r.ok()) return neg_errno(r.error().code);
        return r.value();
      }

      case Sys::kEpollWait: {
        // epoll_wait(epfd, events, maxevents, timeout_ns): events is
        // an array of {fd, revents} int64 pairs. Timeout semantics
        // match kPoll (deadline pinned at the first dispatch).
        constexpr uint64_t kMaxEpollEvents = 4096;
        FilePtr epfile = file_of(args[0]);
        if (!epfile) return neg_errno(ErrorCode::kBadF);
        auto *ep = dynamic_cast<EpollObject *>(epfile.get());
        if (!ep) return neg_errno(ErrorCode::kInval);
        uint64_t evs_ptr = args[1];
        uint64_t max_events = args[2];
        int64_t timeout_ns = static_cast<int64_t>(args[3]);
        if (max_events == 0 || max_events > kMaxEpollEvents) {
            return neg_errno(ErrorCode::kInval);
        }
        if (proc.sys_deadline == ~0ull && timeout_ns >= 0) {
            proc.sys_deadline =
                clock_->cycles() +
                static_cast<uint64_t>(static_cast<double>(timeout_ns) *
                                      (SimClock::kFrequencyHz / 1e9));
        }
        uint64_t bytes = max_events * abi::kEpollRecordBytes;
        // All-or-nothing EFAULT *before* collect(): collecting is
        // destructive for edge-triggered entries, so the whole output
        // buffer must be probed before any candidate is consumed
        // (same discipline as the kRead/kSockRecv destination probe).
        if (!validate_user_range(proc, evs_ptr, bytes).ok() ||
            evs_ptr + bytes < evs_ptr ||
            !proc.space->is_mapped(evs_ptr, bytes)) {
            return neg_errno(ErrorCode::kFault);
        }
        if (io_scratch_.size() < bytes) {
            io_scratch_.resize(bytes);
        }
        int64_t *rec = reinterpret_cast<int64_t *>(io_scratch_.data());
        uint64_t min_due = ~0ull;
        int64_t n = ep->collect(*this, rec, max_events, min_due);
        uint64_t now = clock_->cycles();
        bool timed_out =
            proc.sys_deadline != ~0ull && now >= proc.sys_deadline;
        if (n > 0 || timed_out) {
            if (n > 0 &&
                !copy_to_user(proc, evs_ptr, rec,
                              static_cast<uint64_t>(n) *
                                  abi::kEpollRecordBytes)
                     .ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            ctr_epoll_waits_->add();
            return n;
        }
        return block_on(proc, std::min(proc.sys_deadline, min_due),
                        {&ep->read_waiters()});
      }

      case Sys::kGetArg: {
        uint64_t index = args[0];
        if (index >= proc.argv.size()) {
            return neg_errno(ErrorCode::kInval);
        }
        const std::string &arg = proc.argv[index];
        uint64_t cap = args[2];
        uint64_t n = std::min<uint64_t>(arg.size() + 1, cap);
        if (n > 0 &&
            !copy_to_user(proc, args[1], arg.c_str(), n).ok()) {
            return neg_errno(ErrorCode::kFault);
        }
        return static_cast<int64_t>(arg.size());
      }

      case Sys::kCount:
        break;
    }
    return neg_errno(ErrorCode::kNoSys);
}

} // namespace occlum::oskit
