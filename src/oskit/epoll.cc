#include "oskit/epoll.h"

#include <algorithm>

#include "oskit/kernel.h"

namespace occlum::oskit {

EpollObject::~EpollObject()
{
    clear_interest();
}

EpollObject::Entry *
EpollObject::entry_at(int fd) const
{
    return fd >= 0 && static_cast<size_t>(fd) < interest_.size()
               ? interest_[static_cast<size_t>(fd)].get()
               : nullptr;
}

void
EpollObject::erase_entry(int fd)
{
    std::unique_ptr<Entry> &slot = interest_[static_cast<size_t>(fd)];
    detach_watches(*slot);
    if (slot->queued) {
        drop_from_ready(fd);
    }
    slot.reset();
}

void
EpollObject::clear_interest()
{
    for (std::unique_ptr<Entry> &entry : interest_) {
        if (entry) {
            detach_watches(*entry);
        }
    }
    interest_.clear();
}

void
EpollObject::attach_watches(int fd, Entry &entry)
{
    // The read-side watch is unconditional: hangup and error edges
    // (peer close, writer gone) are delivered through read-queue
    // wakeups and are always reported, like poll()'s POLLERR/POLLHUP.
    entry.read_watch = {this, fd};
    entry.read_q = &entry.file->read_waiters();
    entry.read_q->add_watch(&entry.read_watch);
    if (entry.events & static_cast<uint64_t>(abi::kPollOut)) {
        entry.write_watch = {this, fd};
        entry.write_q = &entry.file->write_waiters();
        entry.write_q->add_watch(&entry.write_watch);
    }
}

void
EpollObject::detach_watches(Entry &entry)
{
    if (entry.read_q) {
        entry.read_q->remove_watch(&entry.read_watch);
        entry.read_q = nullptr;
    }
    if (entry.write_q) {
        entry.write_q->remove_watch(&entry.write_watch);
        entry.write_q = nullptr;
    }
}

void
EpollObject::enqueue_candidate(int fd, Entry &entry, uint64_t when)
{
    if (entry.queued) {
        // An earlier event landing sooner pulls the due time forward.
        entry.due = std::min(entry.due, when);
        return;
    }
    entry.queued = true;
    entry.due = when;
    ready_.push_back(fd);
}

void
EpollObject::drop_from_ready(int fd)
{
    ready_.erase(std::remove(ready_.begin(), ready_.end(), fd),
                 ready_.end());
}

bool
EpollObject::reaches(const EpollObject *target) const
{
    for (const std::unique_ptr<Entry> &entry : interest_) {
        auto *nested = entry ? dynamic_cast<const EpollObject *>(
                                   entry->file.get())
                             : nullptr;
        if (!nested) {
            continue;
        }
        if (nested == target || nested->reaches(target)) {
            return true;
        }
    }
    return false;
}

void
EpollObject::prime_entry(Kernel &kernel, int fd, Entry &entry)
{
    // ADD/MOD-time readiness: a level that is already high, or data
    // already in flight, produces no future wake_queue notification —
    // the entry must become a candidate now or the event is lost.
    uint64_t bits =
        entry.file->poll_ready(kernel) &
        (entry.events |
         static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
    uint64_t now = kernel.clock().cycles();
    if (bits != 0) {
        enqueue_candidate(fd, entry, now);
        // Propagate to this epoll's own waiters/watchers (a blocked
        // epoll_wait on a shared fd, or a parent epoll nesting us).
        kernel.wake_queue(read_waiters(), now);
        return;
    }
    uint64_t due = entry.file->next_event_time(kernel);
    if (due != ~0ull) {
        enqueue_candidate(fd, entry, due);
        kernel.wake_queue(read_waiters(), due);
    }
}

Result<int64_t>
EpollObject::add(Kernel &kernel, int fd, const FilePtr &file,
                 uint64_t events)
{
    if (entry_at(fd)) {
        return Error(ErrorCode::kExist, "epoll_ctl: fd already added");
    }
    if (file.get() == this) {
        return Error(ErrorCode::kLoop, "epoll_ctl: self-add");
    }
    if (auto *nested = dynamic_cast<EpollObject *>(file.get())) {
        if (nested->reaches(this)) {
            return Error(ErrorCode::kLoop, "epoll_ctl: watch cycle");
        }
    }
    if (static_cast<size_t>(fd) >= interest_.size()) {
        interest_.resize(static_cast<size_t>(fd) + 1);
    }
    interest_[static_cast<size_t>(fd)] = std::make_unique<Entry>();
    Entry &entry = *interest_[static_cast<size_t>(fd)];
    entry.file = file;
    entry.edge = (events & static_cast<uint64_t>(abi::kEpollEt)) != 0;
    entry.events = events & ~static_cast<uint64_t>(abi::kEpollEt);
    attach_watches(fd, entry);
    prime_entry(kernel, fd, entry);
    return 0;
}

Result<int64_t>
EpollObject::modify(Kernel &kernel, int fd, uint64_t events)
{
    Entry *found = entry_at(fd);
    if (!found) {
        return Error(ErrorCode::kNoEnt, "epoll_ctl: fd not watched");
    }
    Entry &entry = *found;
    detach_watches(entry);
    entry.edge = (events & static_cast<uint64_t>(abi::kEpollEt)) != 0;
    entry.events = events & ~static_cast<uint64_t>(abi::kEpollEt);
    attach_watches(fd, entry);
    // MOD re-arms: re-evaluate readiness under the new mask (Linux
    // does the same wakeup check in ep_modify).
    if (!entry.queued) {
        prime_entry(kernel, fd, entry);
    }
    return 0;
}

Result<int64_t>
EpollObject::remove(int fd)
{
    if (!entry_at(fd)) {
        return Error(ErrorCode::kNoEnt, "epoll_ctl: fd not watched");
    }
    erase_entry(fd);
    return 0;
}

void
EpollObject::forget_fd(int fd)
{
    if (entry_at(fd)) {
        erase_entry(fd);
    }
}

void
EpollObject::on_source_event(Kernel &kernel, int fd, uint64_t when)
{
    Entry *entry = entry_at(fd);
    if (!entry) {
        return;
    }
    enqueue_candidate(fd, *entry, when);
    // Recursive wake: blocked epoll_wait callers get their retry (or
    // a timer at `when` for in-flight data), and any parent epoll
    // watching this epoll fd gets the same notification — nesting
    // falls out of the same mechanism.
    kernel.wake_queue(read_waiters(), when);
}

int64_t
EpollObject::collect(Kernel &kernel, int64_t *out, uint64_t max_events,
                     uint64_t &min_due)
{
    uint64_t now = kernel.clock().cycles();
    int64_t n = 0;
    size_t pending = ready_.size();
    while (pending-- > 0) {
        int fd = ready_.front();
        ready_.pop_front();
        Entry *found = entry_at(fd);
        if (!found || !found->queued) {
            continue; // stale: removed or already dequeued
        }
        Entry &entry = *found;
        if (n == static_cast<int64_t>(max_events)) {
            kept_.push_back(fd); // out of room this call; keep queued
            continue;
        }
        if (entry.due > now) {
            // In-flight: stays a candidate; the caller blocks no
            // later than this.
            min_due = std::min(min_due, entry.due);
            kept_.push_back(fd);
            continue;
        }
        uint64_t bits =
            entry.file->poll_ready(kernel) &
            (entry.events |
             static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
        if (bits != 0) {
            out[2 * n] = fd;
            out[2 * n + 1] = static_cast<int64_t>(bits);
            ++n;
            if (entry.edge) {
                // Edge-triggered: consumed. The next wake_queue
                // notification (a genuinely new edge) re-queues it.
                entry.queued = false;
            } else {
                kept_.push_back(fd); // level-triggered: still high
            }
            continue;
        }
        uint64_t due = entry.file->next_event_time(kernel);
        if (due != ~0ull && due > now) {
            entry.due = due;
            min_due = std::min(min_due, due);
            kept_.push_back(fd);
        } else {
            entry.queued = false; // spurious candidate: drop
        }
    }
    // Order-preserving: verified-but-kept candidates rotate back in
    // their original relative order (fairness across busy fds).
    ready_.insert(ready_.end(), kept_.begin(), kept_.end());
    kept_.clear();
    return n;
}

uint64_t
EpollObject::poll_ready(Kernel &kernel)
{
    uint64_t now = kernel.clock().cycles();
    for (int fd : ready_) {
        const Entry *found = entry_at(fd);
        if (!found || !found->queued) {
            continue;
        }
        const Entry &entry = *found;
        if (entry.due > now) {
            continue;
        }
        uint64_t bits =
            entry.file->poll_ready(kernel) &
            (entry.events |
             static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
        if (bits != 0) {
            return static_cast<uint64_t>(abi::kPollIn);
        }
    }
    return 0;
}

uint64_t
EpollObject::next_event_time(Kernel &kernel)
{
    uint64_t now = kernel.clock().cycles();
    uint64_t min_due = ~0ull;
    for (int fd : ready_) {
        const Entry *entry = entry_at(fd);
        if (!entry || !entry->queued) {
            continue;
        }
        uint64_t due = entry->due;
        if (due > now) {
            min_due = std::min(min_due, due);
        }
    }
    return min_due;
}

void
EpollObject::on_fd_release(Kernel &kernel)
{
    (void)kernel;
    if (--fd_refs_ == 0) {
        clear_interest();
        ready_.clear();
    }
}

} // namespace occlum::oskit
