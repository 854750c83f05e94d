/**
 * @file
 * The untrusted host world: where binaries live, where the encrypted
 * file system's block device persists, and where the network sits.
 *
 * In the paper's threat model (§3.1) everything here is attacker-
 * controlled; the Occlum LibOS therefore never trusts host content —
 * binaries are signature-checked, FS blocks are decrypted and
 * HMAC-verified, network data is opaque.
 */
#ifndef OCCLUM_HOST_HOST_H
#define OCCLUM_HOST_HOST_H

#include <algorithm>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/cost_model.h"
#include "base/result.h"
#include "base/sim_clock.h"
#include "faultsim/faultsim.h"

namespace occlum::host {

/**
 * A simple path -> bytes store: the host directory containing OELF
 * binaries and (for the Linux baseline) plain files. Cost charging is
 * the OS personality's job, not this store's.
 */
class HostFileStore
{
  public:
    void
    put(const std::string &path, Bytes content)
    {
        files_[path] = std::move(content);
    }

    bool exists(const std::string &path) const
    {
        return files_.count(path) != 0;
    }

    Result<const Bytes *>
    get(const std::string &path) const
    {
        auto it = files_.find(path);
        if (it == files_.end()) {
            return Error(ErrorCode::kNoEnt, "no such host file: " + path);
        }
        return &it->second;
    }

    Bytes *
    get_mutable(const std::string &path)
    {
        return &files_[path];
    }

    void remove(const std::string &path) { files_.erase(path); }

    size_t count() const { return files_.size(); }

  private:
    std::map<std::string, Bytes> files_;
};

/**
 * A block device backing the encrypted file system (the 1 TB SSD of
 * the paper's testbed). Reads and writes charge calibrated disk costs
 * to the shared clock. Content is untrusted: the enclave-side FS
 * encrypts and MACs every block.
 */
class BlockDevice
{
  public:
    static constexpr uint64_t kBlockSize = 4096;

    BlockDevice(SimClock &clock, uint64_t block_count)
        : clock_(&clock), blocks_(block_count)
    {}

    uint64_t block_count() const { return blocks_.size(); }

    Status
    read_block(uint64_t index, Bytes &out)
    {
        if (index >= blocks_.size()) {
            return Status(ErrorCode::kInval, "block index out of range");
        }
        switch (faultsim::FaultSim::instance().dev_read_fault()) {
          case faultsim::DevFault::kTransient:
            // The request reached the device and bounced: pay the
            // submission overhead, move no data. kAgain = retryable.
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kAgain,
                          "transient read fault (injected)");
          case faultsim::DevFault::kHard:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kIo, "read fault (injected)");
          default:
            break;
        }
        charge_read(kBlockSize);
        if (blocks_[index].empty()) {
            out.assign(kBlockSize, 0);
        } else {
            out = blocks_[index];
        }
        return Status();
    }

    Status
    write_block(uint64_t index, const Bytes &in)
    {
        if (index >= blocks_.size() || in.size() != kBlockSize) {
            return Status(ErrorCode::kInval, "bad block write");
        }
        faultsim::FaultSim &faults = faultsim::FaultSim::instance();
        switch (faults.dev_write_fault()) {
          case faultsim::DevFault::kTransient:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kAgain,
                          "transient write fault (injected)");
          case faultsim::DevFault::kHard:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kIo, "write fault (injected)");
          case faultsim::DevFault::kTorn: {
            // Power-cut mid-write: the first half lands, the tail
            // keeps the old content — and the host reports success,
            // exactly the lie a real disk tells without a barrier.
            charge_write(kBlockSize);
            Bytes &block = blocks_[index];
            if (block.empty()) {
                block.assign(kBlockSize, 0);
            }
            std::copy(in.begin(), in.begin() + kBlockSize / 2,
                      block.begin());
            return Status();
          }
          case faultsim::DevFault::kCorrupt:
            // Reported success, flipped bits at rest: the attack /
            // rot case EncFs MACs exist to catch.
            charge_write(kBlockSize);
            blocks_[index] = in;
            faults.scramble(blocks_[index].data(),
                            blocks_[index].size());
            return Status();
          case faultsim::DevFault::kNone:
            break;
        }
        charge_write(kBlockSize);
        blocks_[index] = in;
        return Status();
    }

    /** Raw access without cost (used by tests to inspect/tamper). */
    Bytes &raw_block(uint64_t index) { return blocks_[index]; }

  private:
    void
    charge_read(uint64_t bytes)
    {
        clock_->advance(CostModel::kDiskRequestCycles +
                        static_cast<uint64_t>(
                            bytes * CostModel::kDiskReadCyclesPerByte));
    }

    void
    charge_write(uint64_t bytes)
    {
        clock_->advance(CostModel::kDiskRequestCycles +
                        static_cast<uint64_t>(
                            bytes * CostModel::kDiskWriteCyclesPerByte));
    }

    SimClock *clock_;
    std::vector<Bytes> blocks_;
};

/**
 * The 1 Gbps LAN between the server under test and the load
 * generator. Models a shared-bandwidth link ("busy-until" semantics)
 * plus a fixed round-trip latency; data chunks become readable at
 * their computed arrival timestamps.
 */
class NetSim
{
  public:
    explicit NetSim(SimClock &clock) : clock_(&clock) {}

    /** One direction of a connection: chunks with arrival times. */
    struct Chunk {
        Bytes data;
        uint64_t arrival_cycles;
        size_t consumed = 0;
    };

    /**
     * One connection. Ids are dense and increasing from 1, so the
     * kernel indexes its socket table by them. The NetSim keeps every
     * accepted connection until it is destroyed, so an idle one must
     * be cheap: its queues are lists, which allocate nothing while
     * empty (an empty deque holds a map and a 512-byte block).
     */
    struct Connection {
        int id = 0;
        bool open_server = true;   // server side not closed
        bool open_client = true;   // client side not closed
        std::list<Chunk> to_server;
        std::list<Chunk> to_client;
    };

    /** Create a listener; returns false if the port is taken. */
    bool listen(uint16_t port, int backlog);

    /** Client side: initiate a connection (completes after RTT/2). */
    Result<Connection *> connect(uint16_t port);

    /** Server side: pop a pending connection if one has arrived. */
    Connection *try_accept(uint16_t port, uint64_t now_cycles);

    /** Earliest pending-connection arrival, or ~0 if none. */
    uint64_t next_accept_time(uint16_t port) const;

    /** Enqueue bytes (shared-link bandwidth + half-RTT latency). */
    void send(Connection *conn, bool from_server, const uint8_t *data,
              size_t len);

    /**
     * Dequeue up to `cap` arrived bytes. Returns bytes read; sets
     * `next_arrival` to the earliest pending arrival when 0 is
     * returned with data still in flight (~0 if the queue is empty).
     */
    size_t recv(Connection *conn, bool at_server, uint8_t *out, size_t cap,
                uint64_t now_cycles, uint64_t &next_arrival);

    void close(Connection *conn, bool server_side);

    /** True if the peer closed and nothing is left to read. */
    bool is_drained(const Connection *conn, bool at_server,
                    uint64_t now_cycles) const;

    /** True if recv() would return bytes right now. */
    bool readable_now(const Connection *conn, bool at_server,
                      uint64_t now_cycles) const;

    /** Earliest in-flight arrival toward `at_server` (~0 if none). */
    uint64_t next_arrival_time(const Connection *conn,
                               bool at_server) const;

    /**
     * Observer hooks for the in-enclave kernel's wait queues: fired
     * when state a blocked process may be waiting on changes. `when`
     * is the simulated arrival cycle (future for in-flight data,
     * "now" for a close). Host-side load generators drive the same
     * NetSim directly, so these fire for their traffic too.
     */
    struct Events {
        std::function<void(Connection *, bool to_server, uint64_t when)>
            on_data;
        std::function<void(uint16_t port, uint64_t when)> on_connect;
        std::function<void(Connection *, bool closed_by_server)> on_close;
    };

    void set_events(Events events) { events_ = std::move(events); }

  private:
    struct Listener {
        int backlog = 16;
        std::deque<std::pair<std::unique_ptr<Connection>, uint64_t>>
            pending; // connection + arrival time
    };

    SimClock *clock_;
    std::map<uint16_t, Listener> listeners_;
    std::vector<std::unique_ptr<Connection>> established_;
    uint64_t link_busy_until_ = 0;
    int next_conn_id_ = 1;
    Events events_;
};

} // namespace occlum::host

#endif // OCCLUM_HOST_HOST_H
