/**
 * @file
 * epoll semantics battery: LT/ET readiness, interest-list lifecycle
 * (ADD/MOD/DEL, EEXIST/ENOENT/ELOOP), dup'd fds, nested epoll fds,
 * close-time auto-removal, cross-SIP wakeups — plus end-to-end smoke
 * tests for the epoll-driven httpd event loop and the reverse-proxy
 * + backend-pool scenario (the workload scripts/ci_faults.sh plan 6
 * drives under network faults and AEX storms).
 */
#include <gtest/gtest.h>

#include "baseline/linux_system.h"
#include "faultsim/faultsim.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"
#include "workloads/workloads.h"

namespace occlum::oskit {
namespace {

struct EpollHarness {
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem sys{clock, files};

    int64_t
    run(const std::string &source,
        const std::vector<std::string> &argv = {"prog"})
    {
        auto out = toolchain::compile(source);
        EXPECT_TRUE(out.ok())
            << (out.ok() ? "" : out.error().message);
        files.put("prog", out.value().image.serialize());
        auto pid = sys.spawn("prog", argv);
        EXPECT_TRUE(pid.ok());
        sys.run();
        auto code = sys.exit_code(pid.value());
        return code.ok() ? code.value() : -999;
    }
};

TEST(Epoll, LevelTriggeredLifecycle)
{
    // ADD/EEXIST/ENOENT, level-triggered re-reporting until drained,
    // DEL dropping a ready fd, and ADD-time priming of an fd whose
    // data was already buffered before it was registered.
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
global byte buf[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 3; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != -17) { return 4; }  // EEXIST
    if (epoll_ctl(ep, 3, fds[1], 0x4) != -2) { return 5; }   // ENOENT
    if (epoll_ctl(ep, 2, fds[1], 0) != -2) { return 6; }     // ENOENT
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 7; }        // quiet
    if (write(fds[1], "hi", 2) != 2) { return 8; }
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 9; }
    if (evs[0] != fds[0]) { return 10; }
    if ((evs[1] & 0x1) == 0) { return 11; }
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 12; } // level: again
    if (read(fds[0], buf, 8) != 2) { return 13; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 14; } // drained
    if (write(fds[1], "x", 1) != 1) { return 15; }
    if (epoll_ctl(ep, 2, fds[0], 0) != 0) { return 16; }  // DEL ready fd
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 17; }    // no interest
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 18; }
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 19; } // primed at ADD
    return 0;
}
)"),
              0);
}

TEST(Epoll, EdgeTriggeredReportsEachNewEdgeOnce)
{
    // ET consumes a reported fd: the same buffered data is never
    // reported twice, and only a fresh write (a new edge) re-queues
    // it — including after a full drain.
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
global byte buf[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, fds[0], 0x80000001) != 0) { return 3; } // ET|IN
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 4; }
    if (write(fds[1], "a", 1) != 1) { return 5; }
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 6; }  // the edge
    if (evs[0] != fds[0]) { return 7; }
    if ((evs[1] & 0x1) == 0) { return 8; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 9; }  // consumed
    if (write(fds[1], "b", 1) != 1) { return 10; }     // new edge
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 11; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 12; }
    if (read(fds[0], buf, 8) != 2) { return 13; }      // full drain
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 14; }
    if (write(fds[1], "c", 1) != 1) { return 15; }     // re-armed
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 16; }
    return 0;
}
)"),
              0);
}

TEST(Epoll, DupdFdIsADistinctInterestEntry)
{
    // Interest is keyed by descriptor, not by file object: a dup'd fd
    // registers separately and one write fires both entries.
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (dup2(fds[0], 9) != 9) { return 2; }
    var ep = epoll_create();
    if (ep < 0) { return 3; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 4; }
    if (epoll_ctl(ep, 1, 9, 0x1) != 0) { return 5; } // same file, ok
    if (write(fds[1], "z", 1) != 1) { return 6; }
    if (epoll_wait(ep, evs, 8, 0) != 2) { return 7; }
    var a = evs[0];
    var b = evs[2];
    if (a == b) { return 8; }
    if (a != fds[0]) { if (a != 9) { return 9; } }
    if (b != fds[0]) { if (b != 9) { return 10; } }
    if ((evs[1] & 0x1) == 0) { return 11; }
    if ((evs[3] & 0x1) == 0) { return 12; }
    return 0;
}
)"),
              0);
}

TEST(Epoll, NestedEpollPropagatesAndCyclesAreEloop)
{
    // An epoll fd is itself pollable: readiness of a watched fd in
    // the inner set makes the inner epoll fd readable in the outer
    // set. Self-registration and cycles are rejected with ELOOP.
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
global byte buf[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var inner = epoll_create();
    if (inner < 0) { return 2; }
    var outer = epoll_create();
    if (outer < 0) { return 3; }
    if (epoll_ctl(inner, 1, inner, 0x1) != -40) { return 4; } // ELOOP
    if (epoll_ctl(outer, 1, inner, 0x1) != 0) { return 5; }
    if (epoll_ctl(inner, 1, outer, 0x1) != -40) { return 6; } // cycle
    if (epoll_ctl(inner, 1, fds[0], 0x1) != 0) { return 7; }
    if (epoll_wait(outer, evs, 4, 0) != 0) { return 8; }
    if (write(fds[1], "q", 1) != 1) { return 9; }
    if (epoll_wait(outer, evs, 4, 0) != 1) { return 10; }
    if (evs[0] != inner) { return 11; }
    if ((evs[1] & 0x1) == 0) { return 12; }
    if (epoll_wait(inner, evs, 4, 0) != 1) { return 13; }
    if (evs[0] != fds[0]) { return 14; }
    if (read(fds[0], buf, 8) != 1) { return 15; }
    if (epoll_wait(inner, evs, 4, 0) != 0) { return 16; }
    if (epoll_wait(outer, evs, 4, 0) != 0) { return 17; } // drains up
    return 0;
}
)"),
              0);
}

TEST(Epoll, CloseAutoRemovesInterestEntry)
{
    // Closing a registered fd drops its interest entry: no stale
    // readiness reports, and the recycled fd number registers fresh.
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 3; }
    if (write(fds[1], "k", 1) != 1) { return 4; }
    if (close(fds[0]) != 0) { return 5; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 6; } // interest gone
    var fds2[2];
    if (pipe(fds2) != 0) { return 7; }
    if (fds2[0] != fds[0]) { return 8; }  // slot reused
    if (epoll_ctl(ep, 1, fds2[0], 0x1) != 0) { return 9; } // no EEXIST
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 10; } // and no stale
    return 0;
}
)"),
              0);
}

TEST(Epoll, MaxeventsTruncationKeepsRemainderQueued)
{
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
global byte buf[8];
func main() {
    var a[2];
    var b[2];
    var c[2];
    if (pipe(a) != 0) { return 1; }
    if (pipe(b) != 0) { return 2; }
    if (pipe(c) != 0) { return 3; }
    var ep = epoll_create();
    if (ep < 0) { return 4; }
    if (epoll_ctl(ep, 1, a[0], 0x1) != 0) { return 5; }
    if (epoll_ctl(ep, 1, b[0], 0x1) != 0) { return 6; }
    if (epoll_ctl(ep, 1, c[0], 0x1) != 0) { return 7; }
    if (write(a[1], "1", 1) != 1) { return 8; }
    if (write(b[1], "2", 1) != 1) { return 9; }
    if (write(c[1], "3", 1) != 1) { return 10; }
    if (epoll_wait(ep, evs, 2, 0) != 2) { return 11; } // room for two
    if (read(evs[0], buf, 8) != 1) { return 12; }      // drain those
    if (read(evs[2], buf, 8) != 1) { return 13; }
    if (epoll_wait(ep, evs, 4, 0) != 1) { return 14; } // the third
    if (read(evs[0], buf, 8) != 1) { return 15; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 16; }
    return 0;
}
)"),
              0);
}

TEST(Epoll, BadArgumentsAreEinvalOrEbadf)
{
    EpollHarness h;
    EXPECT_EQ(h.run(R"(
global int evs[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(fds[0], 1, fds[1], 0x1) != -22) { return 3; } // not an epoll fd
    if (epoll_ctl(99, 1, fds[0], 0x1) != -9) { return 4; }      // bad epfd
    if (epoll_ctl(ep, 1, 99, 0x1) != -9) { return 5; }          // bad target
    if (epoll_ctl(ep, 7, fds[0], 0x1) != -22) { return 6; }     // bad op
    if (epoll_wait(fds[0], evs, 4, 0) != -22) { return 7; }
    if (epoll_wait(ep, evs, 0, 0) != -22) { return 8; }         // maxevents=0
    var t0 = time_ns();
    if (epoll_wait(ep, evs, 4, 1000000) != 0) { return 9; }     // 1 ms timeout
    if (time_ns() - t0 < 1000000) { return 10; }
    return 0;
}
)"),
              0);
}

TEST(Epoll, BlockedWaitWakesOnCrossSipWrite)
{
    // The caller parks in epoll_wait() with nothing ready; a second
    // SIP writes the watched pipe much later. The wakeup must travel
    // pipe -> watch -> epoll ready list -> blocked waiter.
    EpollHarness h;
    auto child = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; }  // let the parent park first
    if (write(1, "p", 1) != 1) { return 9; }
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("poker", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "poker";
global int evs[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 3; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = 0 - 1;
    io3[1] = fds[1];           // child stdout = the write end
    io3[2] = 0 - 1;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 4; }
    close(fds[1]);
    var n = epoll_wait(ep, evs, 4, 0 - 1);  // parked here
    if (n != 1) { return 5; }
    if (evs[0] != fds[0]) { return 6; }
    if ((evs[1] & 0x1) == 0) { return 7; }
    return 0;
}
)"),
              0);
}

TEST(Epoll, DelWhileSiblingBlocksInWait)
{
    // SIP A blocks in epoll_wait on a shared epoll fd; SIP B deletes
    // the only registered fd out from under it, then writes that pipe
    // (which must produce NO event), then registers a second pipe and
    // writes it. A must wake exactly once, seeing only the new fd.
    EpollHarness h;
    auto child = toolchain::compile(R"(
global int evs[8];
global byte argbuf[16];
func main() {
    if (argc() < 2) { return 1; }
    getarg(1, argbuf, 16);
    var expect = atoi(argbuf);
    var n = epoll_wait(0, evs, 4, 0 - 1);  // the shared epoll is fd 0
    if (n != 1) { return 2; }
    if (evs[0] != expect) { return 3; }
    if ((evs[1] & 0x1) == 0) { return 4; }
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("waiter", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "waiter";
global byte fdbuf[16];
func main() {
    var ep = epoll_create();
    if (ep < 0) { return 1; }
    var p1[2];
    var p2[2];
    if (pipe(p1) != 0) { return 2; }
    if (pipe(p2) != 0) { return 3; }
    if (epoll_ctl(ep, 1, p1[0], 0x1) != 0) { return 4; }
    itoa(p2[0], fdbuf);
    var argvv[2];
    argvv[0] = child;
    argvv[1] = fdbuf;
    var io3[3];
    io3[0] = ep;               // the child shares the epoll as fd 0
    io3[1] = 0 - 1;
    io3[2] = 0 - 1;
    var pid = spawn_io(child, argvv, 2, io3);
    if (pid < 0) { return 5; }
    var i = 0;
    while (i < 200000) { i = i + 1; }   // child parks in epoll_wait
    if (epoll_ctl(ep, 2, p1[0], 0) != 0) { return 6; }  // DEL under it
    if (write(p1[1], "x", 1) != 1) { return 7; }  // must not wake it
    if (epoll_ctl(ep, 1, p2[0], 0x1) != 0) { return 8; }
    if (write(p2[1], "y", 1) != 1) { return 9; }  // this wakes it
    return waitpid(pid);
}
)"),
              0);
}

// ---- end-to-end: the epoll workloads over simulated networking --------

struct NetHarness {
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net{clock};
    baseline::LinuxSystem sys{clock, files, &net};

    void
    put_program(const std::string &name, const std::string &source)
    {
        auto out = toolchain::compile(source);
        ASSERT_TRUE(out.ok())
            << (out.ok() ? "" : out.error().message);
        files.put(name, out.value().image.serialize());
    }

    /** Closed-loop clients: each sends a request, reads the full
     *  10240-byte page, closes, repeats. Returns completed count. */
    int
    drive(int concurrency, int total)
    {
        struct Client {
            host::NetSim::Connection *conn = nullptr;
            size_t received = 0;
        };
        std::vector<Client> clients(concurrency);
        const char *request = "GET / HTTP/1.1\r\n\r\n";
        constexpr size_t kResponse = 10240;
        int issued = 0;
        int completed = 0;
        auto start = [&](Client &client) {
            if (issued >= total) {
                client.conn = nullptr;
                return;
            }
            auto conn = net.connect(8080);
            ASSERT_TRUE(conn.ok()) << conn.error().message;
            client.conn = conn.value();
            client.received = 0;
            net.send(client.conn, false,
                     reinterpret_cast<const uint8_t *>(request),
                     strlen(request));
            ++issued;
        };
        for (auto &client : clients) {
            start(client);
        }
        uint8_t buf[4096];
        uint64_t stall_guard = 0;
        while (completed < total) {
            bool progress = sys.step_round();
            for (auto &client : clients) {
                if (!client.conn) {
                    continue;
                }
                uint64_t next_arrival = ~0ull;
                size_t n =
                    net.recv(client.conn, false, buf, sizeof(buf),
                             clock.cycles(), next_arrival);
                if (n > 0) {
                    client.received += n;
                    progress = true;
                    if (client.received >= kResponse) {
                        net.close(client.conn, false);
                        ++completed;
                        start(client);
                    }
                }
            }
            if (!progress) {
                uint64_t wake = sys.next_wake_time();
                for (auto &client : clients) {
                    if (!client.conn) {
                        continue;
                    }
                    uint64_t next_arrival = ~0ull;
                    net.recv(client.conn, false, buf, 0, clock.cycles(),
                             next_arrival);
                    wake = std::min(wake, next_arrival);
                }
                if (wake == ~0ull || wake <= clock.cycles()) {
                    if (++stall_guard > 1000) {
                        break; // stalled: let the caller's asserts fail
                    }
                    continue;
                }
                stall_guard = 0;
                clock.advance(wake - clock.cycles());
            }
        }
        return completed;
    }
};

TEST(EpollWorkload, HttpdEpollServesRequests)
{
    NetHarness h;
    h.put_program("httpd_epoll", workloads::httpd_epoll_source());
    auto pid = h.sys.spawn("httpd_epoll", {"httpd_epoll", "6", "32"});
    ASSERT_TRUE(pid.ok());
    h.sys.run(/*allow_idle=*/true); // server parks in epoll_wait
    EXPECT_EQ(h.drive(2, 6), 6);
    h.sys.run(/*allow_idle=*/true);
    auto code = h.sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 6); // served & 0x7f
}

/** The proxy scenario at `cores`: (death order, final sim cycles). */
std::pair<std::vector<int>, uint64_t>
run_proxy_at(int cores)
{
    // Under an ambient OCCLUM_FAULT_PLAN (scripts/ci_faults.sh) the
    // fault streams must restart per run, or the determinism check
    // below would compare two different fault schedules.
    faultsim::FaultSim::instance().reseed();
    NetHarness h;
    h.sys.set_cores(cores);
    h.put_program("proxy_frontend", workloads::proxy_frontend_source());
    h.put_program("proxy_backend", workloads::proxy_backend_source());
    auto pid = h.sys.spawn("proxy_frontend", {"proxy_frontend", "12",
                                              "32"});
    EXPECT_TRUE(pid.ok());
    h.sys.run(/*allow_idle=*/true);
    EXPECT_EQ(h.drive(3, 12), 12);
    h.sys.run(/*allow_idle=*/true);
    auto code = h.sys.exit_code(pid.value());
    EXPECT_TRUE(code.ok() && code.value() == 0);
    EXPECT_TRUE(h.sys.all_exited());
    return {h.sys.death_order(), h.clock.cycles()};
}

TEST(EpollWorkload, ProxyIsDeterministicAtEveryCoreCount)
{
    // The SMP scheduler must stay a pure function of the workload:
    // for each core count, two fresh runs of the full proxy scenario
    // (network arrivals, stealing, cross-core wakeups and all) agree
    // on the SIP completion order *and* the total simulated cycles.
    for (int cores : {1, 2, 4}) {
        auto first = run_proxy_at(cores);
        auto second = run_proxy_at(cores);
        EXPECT_EQ(first.first, second.first) << "cores=" << cores;
        EXPECT_EQ(first.second, second.second) << "cores=" << cores;
        // Frontend (pid 1) outlives the 4 backends it reaps.
        ASSERT_EQ(first.first.size(), 5u) << "cores=" << cores;
        EXPECT_EQ(first.first.back(), 1) << "cores=" << cores;
    }
    // And cores=1 reproduces the pre-SMP kernel exactly: the backends
    // die in spawn order (the frontend shuts its job pipes down in
    // order), as recorded from the seed scheduler.
    auto uni = run_proxy_at(1);
    EXPECT_EQ(uni.first, (std::vector<int>{2, 3, 4, 5, 1}));
}

TEST(EpollWorkload, ReverseProxyServesThroughBackendPool)
{
    // The flagship multi-process scenario: an epoll frontend fans
    // requests out over job pipes to 4 spawned backend SIPs and
    // relays their piped responses back over the sockets. 12 requests
    // over 3 concurrent closed-loop clients.
    NetHarness h;
    h.put_program("proxy_frontend", workloads::proxy_frontend_source());
    h.put_program("proxy_backend", workloads::proxy_backend_source());
    auto pid = h.sys.spawn("proxy_frontend", {"proxy_frontend", "12",
                                              "32"});
    ASSERT_TRUE(pid.ok());
    h.sys.run(/*allow_idle=*/true); // frontend + backends park
    EXPECT_EQ(h.drive(3, 12), 12);
    h.sys.run(/*allow_idle=*/true); // frontend reaps its backends
    auto code = h.sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    EXPECT_TRUE(h.sys.all_exited());
}

/** What the idle-herd proxy run leaves behind. */
struct HerdResult {
    std::vector<int> death_order;
    uint64_t cycles = 0;
    int served = 0;
    uint64_t epoll_waits = 0;
    uint64_t wakeups = 0;
    uint64_t wasted_retries = 0;
    uint64_t steals = 0;
};

/**
 * The web_proxy shape at test scale: the epoll proxy (frontend + 4
 * backends) on Occlum at `cores`, with `idle` silent connections
 * accepted into the frontend's epoll set before `requests` requests
 * from 4 closed-loop clients. The idle herd is what makes the fd
 * table, the interest list and the socket registry large.
 */
HerdResult
run_idle_herd(int cores, int idle, int requests)
{
    faultsim::FaultSim::instance().reseed(); // see run_proxy_at
    trace::Registry::instance().reset();
    static const workloads::ProgramBuild frontend =
        workloads::build_program(workloads::proxy_frontend_source());
    static const workloads::ProgramBuild backend =
        workloads::build_program(workloads::proxy_backend_source());
    constexpr int kClients = 4;
    constexpr size_t kResponse = 10240;

    sgx::Platform platform;
    host::NetSim net(platform.clock());
    host::HostFileStore files;
    files.put("proxy_frontend", frontend.occlum);
    files.put("proxy_backend", backend.occlum);
    libos::OcclumSystem::Config config;
    config.num_slots = 8;
    config.slot_code_size = 1 << 20;
    config.slot_data_size = 8 << 20;
    config.verifier_key = workloads::bench_verifier_key();
    config.cores = cores;
    libos::OcclumSystem sys(platform, files, config, &net);
    SimClock &clock = platform.clock();

    auto pid = sys.spawn("proxy_frontend",
                         {"proxy_frontend", std::to_string(requests),
                          std::to_string(idle + kClients + 16)});
    EXPECT_TRUE(pid.ok());
    sys.run(/*allow_idle=*/true);
    for (int i = 0; i < idle; ++i) {
        EXPECT_TRUE(net.connect(8080).ok());
    }
    while (net.next_accept_time(8080) != ~0ull) {
        if (!sys.step_round()) {
            uint64_t wake =
                std::min(sys.next_wake_time(), net.next_accept_time(8080));
            if (wake == ~0ull || wake <= clock.cycles()) {
                ADD_FAILURE() << "idle accepts stalled";
                break;
            }
            clock.advance(wake - clock.cycles());
        }
    }
    sys.run(/*allow_idle=*/true);

    struct Client {
        host::NetSim::Connection *conn = nullptr;
        size_t received = 0;
    };
    std::vector<Client> clients(kClients);
    const char request[] = "GET / HTTP/1.1\r\n\r\n";
    int issued = 0;
    HerdResult r;
    auto start = [&](Client &c) {
        c.conn = nullptr;
        if (issued == requests) {
            return;
        }
        auto conn = net.connect(8080);
        ASSERT_TRUE(conn.ok());
        c.conn = conn.value();
        c.received = 0;
        net.send(c.conn, false, reinterpret_cast<const uint8_t *>(request),
                 sizeof(request) - 1);
        ++issued;
    };
    for (Client &c : clients) {
        start(c);
    }
    uint8_t buf[4096];
    while (r.served < requests) {
        bool progress = sys.step_round();
        uint64_t wake = sys.next_wake_time();
        for (Client &c : clients) {
            if (!c.conn) {
                continue;
            }
            uint64_t next_arrival = ~0ull;
            size_t n = net.recv(c.conn, false, buf, sizeof(buf),
                                clock.cycles(), next_arrival);
            wake = std::min(wake, next_arrival);
            if (n == 0) {
                continue;
            }
            progress = true;
            c.received += n;
            if (c.received >= kResponse) {
                EXPECT_EQ(c.received, kResponse);
                net.close(c.conn, false);
                ++r.served;
                start(c);
            }
        }
        if (!progress) {
            if (wake == ~0ull || wake <= clock.cycles()) {
                ADD_FAILURE() << "proxy stalled at " << r.served;
                break;
            }
            clock.advance(wake - clock.cycles());
        }
    }
    sys.run(/*allow_idle=*/true);
    auto code = sys.exit_code(pid.value());
    EXPECT_TRUE(code.ok() && code.value() == 0) << "cores " << cores;
    EXPECT_TRUE(sys.all_exited()) << "cores " << cores;

    r.death_order = sys.death_order();
    r.cycles = clock.cycles();
    auto &registry = trace::Registry::instance();
    r.epoll_waits = registry.counter("kernel.epoll_waits").value();
    r.wakeups = registry.counter("kernel.wakeups").value();
    r.wasted_retries = registry.counter("kernel.wasted_retries").value();
    // Per-core counters exist only when cores > 1 (Kernel::set_cores).
    for (int c = 0; cores > 1 && c < cores; ++c) {
        r.steals += registry
                        .counter("kernel.core" + std::to_string(c) +
                                 ".steals")
                        .value();
    }
    return r;
}

TEST(EpollWorkload, IdleHerdProxyMatchesPinnedSchedule)
{
    // 4,096 idle connections sit in the frontend's epoll set (and fd
    // table, and socket registry) while 64 requests flow. The figures
    // were recorded when the fd table, the interest list and the
    // socket registry were ordered maps and the NetSim queues were
    // deques: the host structures behind an fd may change, the
    // simulated schedule may not.
    struct Golden {
        int cores;
        std::vector<int> death_order;
        uint64_t cycles;
        uint64_t epoll_waits, wakeups, wasted_retries, steals;
    };
    const Golden goldens[] = {
        {1, {2, 3, 4, 5, 1}, 778098029, 4253, 164, 0, 0},
        {4, {2, 3, 4, 5, 1}, 777187777, 4253, 164, 0, 20},
    };
    for (const Golden &g : goldens) {
        HerdResult r = run_idle_herd(g.cores, 4096, 64);
        EXPECT_EQ(r.served, 64) << "cores " << g.cores;
        if (faultsim::FaultSim::instance().active()) {
            continue; // an ambient fault plan moves every figure below
        }
        EXPECT_EQ(r.death_order, g.death_order) << "cores " << g.cores;
        EXPECT_EQ(r.cycles, g.cycles) << "cores " << g.cores;
        EXPECT_EQ(r.epoll_waits, g.epoll_waits) << "cores " << g.cores;
        EXPECT_EQ(r.wakeups, g.wakeups) << "cores " << g.cores;
        EXPECT_EQ(r.wasted_retries, g.wasted_retries)
            << "cores " << g.cores;
        EXPECT_EQ(r.steals, g.steals) << "cores " << g.cores;
    }
}

} // namespace
} // namespace occlum::oskit
