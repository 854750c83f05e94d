#include "oskit/file_object.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "oskit/kernel.h"
#include "trace/trace.h"

namespace occlum::oskit {

// ---------------------------------------------------------------------
// WaitQueue
// ---------------------------------------------------------------------

WaitQueue::~WaitQueue()
{
    // Normally empty by now (a blocked process keeps every object it
    // waits on alive through its own fd table, and Kernel teardown
    // detaches survivors); clean up back-pointers if not.
    for (Process *proc : waiters_) {
        auto &w = proc->waiting_on;
        w.erase(std::remove(w.begin(), w.end(), this), w.end());
    }
}

void
WaitQueue::add(Process *proc)
{
    if (std::find(waiters_.begin(), waiters_.end(), proc) ==
        waiters_.end()) {
        waiters_.push_back(proc);
    }
}

void
WaitQueue::remove(Process *proc)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), proc),
                   waiters_.end());
}

std::vector<Process *>
WaitQueue::take()
{
    return std::exchange(waiters_, {});
}

void
WaitQueue::add_watch(EpollWatch *watch)
{
    if (std::find(watches_.begin(), watches_.end(), watch) ==
        watches_.end()) {
        watches_.push_back(watch);
    }
}

void
WaitQueue::remove_watch(EpollWatch *watch)
{
    watches_.erase(
        std::remove(watches_.begin(), watches_.end(), watch),
        watches_.end());
}

// ---------------------------------------------------------------------
// Pipe
// ---------------------------------------------------------------------

size_t
Pipe::pop(uint8_t *out, size_t len)
{
    size_t n = std::min(len, size_);
    if (n == 0) {
        return 0;
    }
    size_t first = std::min(n, kCapacity - head_);
    std::memcpy(out, ring_.get() + head_, first);
    std::memcpy(out + first, ring_.get(), n - first);
    size_ -= n;
    head_ = size_ == 0 ? 0 : (head_ + n) % kCapacity;
    return n;
}

size_t
Pipe::push(const uint8_t *in, size_t len)
{
    size_t n = std::min(len, kCapacity - size_);
    if (n == 0) {
        return 0;
    }
    size_t tail = (head_ + size_) % kCapacity;
    size_t first = std::min(n, kCapacity - tail);
    std::memcpy(ring_.get() + tail, in, first);
    std::memcpy(ring_.get(), in + first, n - first);
    size_ += n;
    return n;
}

// ---------------------------------------------------------------------
// PipeEnd
// ---------------------------------------------------------------------

void
PipeEnd::on_fd_acquire()
{
    if (read_end_) {
        ++pipe_->readers;
    } else {
        ++pipe_->writers;
    }
}

void
PipeEnd::on_fd_release(Kernel &kernel)
{
    if (read_end_) {
        if (--pipe_->readers == 0) {
            // Last reader gone: blocked writers must learn they will
            // never drain the pipe (EPIPE, SIGPIPE-shaped death).
            kernel.wake_queue(pipe_->write_waiters,
                              kernel.clock().cycles());
        }
    } else {
        if (--pipe_->writers == 0) {
            // Last writer gone: blocked readers see EOF.
            kernel.wake_queue(pipe_->read_waiters,
                              kernel.clock().cycles());
        }
    }
}

IoResult
PipeEnd::read(Kernel &kernel, uint8_t *buf, uint64_t len)
{
    if (!read_end_) {
        return IoResult::err(ErrorCode::kBadF);
    }
    if (pipe_->size() == 0) {
        if (pipe_->writers == 0) {
            return IoResult::ok(0); // EOF
        }
        return IoResult::block();
    }
    uint64_t n = pipe_->pop(buf, len);
    kernel.charge(kernel.pipe_op_cost() +
                  static_cast<uint64_t>(n * kernel.pipe_byte_cost()));
    if (n > 0) {
        // Freed capacity: wake writers blocked on a full pipe.
        kernel.wake_queue(pipe_->write_waiters, kernel.clock().cycles());
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

IoResult
PipeEnd::write(Kernel &kernel, const uint8_t *buf, uint64_t len)
{
    if (read_end_) {
        return IoResult::err(ErrorCode::kBadF);
    }
    if (pipe_->readers == 0) {
        return IoResult::err(ErrorCode::kPipe);
    }
    if (!pipe_->can_write()) {
        return IoResult::block();
    }
    uint64_t n = pipe_->push(buf, len);
    kernel.charge(kernel.pipe_op_cost() +
                  static_cast<uint64_t>(n * kernel.pipe_byte_cost()));
    if (n > 0) {
        kernel.wake_queue(pipe_->read_waiters, kernel.clock().cycles());
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

uint64_t
PipeEnd::poll_ready(Kernel &kernel)
{
    (void)kernel;
    uint64_t bits = 0;
    if (read_end_) {
        if (pipe_->size() != 0) {
            bits |= static_cast<uint64_t>(abi::kPollIn);
        }
        if (pipe_->writers == 0) {
            // Writer gone is a hangup, not data: POLLIN here used to
            // send pollers into a 0-byte read loop on a drained pipe.
            // HUP is always reported, so the poller still wakes; the
            // read then sees a clean EOF.
            bits |= static_cast<uint64_t>(abi::kPollHup);
        }
    } else {
        if (pipe_->readers == 0) {
            bits |= static_cast<uint64_t>(abi::kPollErr);
        } else if (pipe_->can_write()) {
            bits |= static_cast<uint64_t>(abi::kPollOut);
        }
    }
    return bits;
}

// ---------------------------------------------------------------------
// SocketFile
// ---------------------------------------------------------------------

IoResult
SocketFile::read(Kernel &kernel, uint8_t *buf, uint64_t len)
{
    uint64_t next_arrival = ~0ull;
    size_t n = net_->recv(conn_, at_server_, buf, len,
                          kernel.clock().cycles(), next_arrival);
    if (n == 0) {
        if (net_->is_drained(conn_, at_server_,
                             kernel.clock().cycles())) {
            return IoResult::ok(0); // peer closed, EOF
        }
        return IoResult::block(next_arrival);
    }
    {
        OCC_TRACE_SPAN(kOcall, "net.recv", n);
        kernel.charge(kernel.net_op_cost() +
                      static_cast<uint64_t>(
                          n * CostModel::kMemcpyCyclesPerByte));
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

IoResult
SocketFile::write(Kernel &kernel, const uint8_t *buf, uint64_t len)
{
    bool peer_open =
        at_server_ ? conn_->open_client : conn_->open_server;
    if (!peer_open) {
        // Same default-fatal SIGPIPE shape as pipes (the kernel's
        // epipe_kills() path); a send into a closed connection used
        // to succeed silently.
        return IoResult::err(ErrorCode::kPipe);
    }
    net_->send(conn_, at_server_, buf, len);
    {
        OCC_TRACE_SPAN(kOcall, "net.send", len);
        kernel.charge(kernel.net_op_cost() +
                      static_cast<uint64_t>(
                          len * CostModel::kMemcpyCyclesPerByte));
    }
    return IoResult::ok(static_cast<int64_t>(len));
}

void
SocketFile::on_fd_release(Kernel &kernel)
{
    // A socket shared through fd inheritance (spawn stdio) must only
    // close the connection when the *last* descriptor goes away.
    // Closing on the first release tore the socket out of the wakeup
    // registry while another SIP still held a live fd: a poller
    // blocked on the surviving descriptor never saw later data.
    if (--fd_refs_ == 0) {
        net_->close(conn_, at_server_); // fires on_close → wakes peer
        kernel.socket_closed(conn_, at_server_);
    }
}

uint64_t
SocketFile::poll_ready(Kernel &kernel)
{
    uint64_t now = kernel.clock().cycles();
    uint64_t bits = 0;
    bool peer_open =
        at_server_ ? conn_->open_client : conn_->open_server;
    if (peer_open) {
        bits |= static_cast<uint64_t>(abi::kPollOut);
    } else {
        bits |= static_cast<uint64_t>(abi::kPollHup);
    }
    if (net_->readable_now(conn_, at_server_, now)) {
        bits |= static_cast<uint64_t>(abi::kPollIn);
    } else if (net_->is_drained(conn_, at_server_, now)) {
        bits |= static_cast<uint64_t>(abi::kPollIn); // EOF readable
    }
    return bits;
}

uint64_t
SocketFile::next_event_time(Kernel &kernel)
{
    (void)kernel;
    return net_->next_arrival_time(conn_, at_server_);
}

// ---------------------------------------------------------------------
// ListenerFile
// ---------------------------------------------------------------------

void
ListenerFile::on_fd_release(Kernel &kernel)
{
    // The listener is shared across master and workers through fd
    // inheritance; only the last close unregisters the port.
    if (--fd_refs_ == 0) {
        kernel.listener_closed(port_);
    }
}

uint64_t
ListenerFile::poll_ready(Kernel &kernel)
{
    return net_->next_accept_time(port_) <= kernel.clock().cycles()
               ? static_cast<uint64_t>(abi::kPollIn)
               : 0;
}

uint64_t
ListenerFile::next_event_time(Kernel &kernel)
{
    (void)kernel;
    return net_->next_accept_time(port_);
}

} // namespace occlum::oskit
