/**
 * @file
 * Kernel-side epoll: an interest list keyed by fd with a per-epoll
 * ready list, so kEpollWait dispatches O(active) instead of
 * re-scanning every interested fd the way kPoll does.
 *
 * Design (DESIGN.md §3.3):
 *  - Each interest entry holds a strong reference to the watched
 *    FileObject plus up to two EpollWatch subscriptions registered on
 *    the file's read/write WaitQueues. Kernel::wake_queue routes every
 *    notification it would deliver to waiters through the queue's
 *    watches as well, which moves the entry's fd onto this epoll's
 *    ready list and recursively wakes the epoll's own read waiters —
 *    that recursion is what makes epoll fds nest inside other epolls.
 *  - The ready list holds *candidates*: fds whose readiness may have
 *    changed, each stamped with the simulated cycle at which the
 *    event lands (future for in-flight network data). collect()
 *    verifies candidates against poll_ready() at dispatch time, so a
 *    spurious notification costs O(1) and never surfaces to the user.
 *  - Level-triggered entries stay on the ready list while ready;
 *    edge-triggered entries are dequeued when reported and only
 *    re-queued by the next wake_queue notification — i.e. after the
 *    level drains and re-arms, matching EPOLLET.
 *
 * The EpollObject is itself a pollable FileObject (POLLIN when any
 * candidate is due and ready), subject to the normal fd lifecycle.
 */
#ifndef OCCLUM_OSKIT_EPOLL_H
#define OCCLUM_OSKIT_EPOLL_H

#include <deque>
#include <memory>
#include <vector>

#include "oskit/file_object.h"

namespace occlum::oskit {

class EpollObject : public FileObject
{
  public:
    EpollObject() = default;
    ~EpollObject() override;

    /**
     * EPOLL_CTL_ADD. `events` is a mask of abi::kPoll* bits plus the
     * optional abi::kEpollEt flag. Errors: EEXIST if fd is already in
     * the interest list, ELOOP if adding `file` would create a watch
     * cycle (self-add or a nested epoll that reaches back here).
     */
    Result<int64_t> add(Kernel &kernel, int fd, const FilePtr &file,
                        uint64_t events);
    /** EPOLL_CTL_MOD. ENOENT if fd is not in the interest list. */
    Result<int64_t> modify(Kernel &kernel, int fd, uint64_t events);
    /** EPOLL_CTL_DEL. ENOENT if fd is not in the interest list. */
    Result<int64_t> remove(int fd);

    /**
     * Close of `fd` in the owning process: drop the interest entry if
     * present (no error if absent). Matches Linux's auto-removal of
     * closed descriptors from every epoll they were registered with.
     */
    void forget_fd(int fd);

    /**
     * A watched source queue fired for interest entry `fd` (called by
     * Kernel::wake_queue through the queue's EpollWatch list). `when`
     * is the simulated cycle the event lands; future events queue a
     * candidate stamped with that due time.
     */
    void on_source_event(Kernel &kernel, int fd, uint64_t when);

    /**
     * Pop up to `max_events` ready events into `out` as {fd, revents}
     * int64 pairs. Level-triggered entries that remain ready stay
     * queued; edge-triggered entries are dequeued when reported.
     * `min_due` receives the earliest future candidate due time (for
     * the caller's block deadline). Cost is O(ready), never
     * O(interested).
     */
    int64_t collect(Kernel &kernel, int64_t *out, uint64_t max_events,
                    uint64_t &min_due);

    /** Watch-cycle check: can events from `target` reach this epoll? */
    bool reaches(const EpollObject *target) const;

    // ---- FileObject: an epoll fd is itself pollable ----------------
    uint64_t poll_ready(Kernel &kernel) override;
    uint64_t next_event_time(Kernel &kernel) override;
    void on_fd_acquire() override { ++fd_refs_; }
    void on_fd_release(Kernel &kernel) override;

  private:
    struct Entry {
        FilePtr file;
        uint64_t events = 0; // requested abi::kPoll* bits
        bool edge = false;   // abi::kEpollEt
        bool queued = false; // on ready_ (invariant: queued ⟺ listed)
        uint64_t due = 0;    // cycle the queued event lands
        EpollWatch read_watch;
        EpollWatch write_watch;
        // The queues the watches were registered on (kept alive by
        // `file`), remembered so detach never guesses.
        WaitQueue *read_q = nullptr;
        WaitQueue *write_q = nullptr;
    };

    void attach_watches(int fd, Entry &entry);
    void detach_watches(Entry &entry);
    /** Queue fd as a candidate (or pull its due time earlier). */
    void enqueue_candidate(int fd, Entry &entry, uint64_t when);
    /** Initial/MOD-time readiness probe: queue if ready or in-flight. */
    void prime_entry(Kernel &kernel, int fd, Entry &entry);
    void drop_from_ready(int fd);
    /** The interest entry for `fd`, or null. */
    Entry *entry_at(int fd) const;
    /** Drop the interest entry for `fd` (which must exist). */
    void erase_entry(int fd);
    /** Drop every interest entry. */
    void clear_interest();

    /**
     * The interest list, indexed by fd (null = not watched). Entries
     * live behind unique_ptr because their EpollWatch members sit on
     * source WaitQueues and must not move when the table grows.
     */
    std::vector<std::unique_ptr<Entry>> interest_;
    std::deque<int> ready_;
    /** collect()'s kept candidates, reused across calls. */
    std::vector<int> kept_;
    int fd_refs_ = 0;
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_EPOLL_H
