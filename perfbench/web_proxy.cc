/**
 * @file
 * web_proxy: the epoll reverse proxy (one frontend SIP, 4 backend
 * SIPs) on Occlum with 4 cores, driven by closed-loop simulated
 * clients while a large set of idle keep-alive connections sits in
 * the frontend's epoll set. It loads the oskit scheduler (epoll, wait
 * queues, per-core run queues, stealing) and the host NetSim.
 */
#include <cstring>
#include <memory>

#include "base/cost_model.h"
#include "base/rng.h"
#include "bench/bench_util.h"
#include "perfbench/harness.h"
#include "trace/metrics.h"

namespace occlum::perfbench {

namespace {

constexpr uint16_t kPort = 8080;
constexpr int kCores = 4;
constexpr int kClients = 16;
constexpr int kRequests = 4000;
constexpr int kIdle = 65536;
constexpr size_t kResponseBytes = 10240;
/** Client i first connects at a seeded offset below this. */
constexpr uint64_t kStaggerCycles = 4 * CostModel::kNetRttCycles;
const char kRequest[] = "GET /page.html HTTP/1.1\r\n\r\n";
const char kPageHead[] = "HTTP/1.1 200 OK\r\n\r\n";

/** The backends' page: status line, blank line, then 'x' filler. */
std::string
expected_page()
{
    std::string page(kResponseBytes, 'x');
    page.replace(0, sizeof(kPageHead) - 1, kPageHead);
    return page;
}

struct Client {
    uint64_t start_at = 0;
    host::NetSim::Connection *conn = nullptr;
    uint64_t connected_at = 0;
    size_t received = 0;
    bool intact = true; // every byte so far matches the page
};

/** Step the scheduler until `done()`, jumping the clock when idle. */
template <class Done>
bool
pump(libos::OcclumSystem &sys, host::NetSim &net, Done done)
{
    while (!done()) {
        if (!sys.step_round()) {
            uint64_t wake = std::min(sys.next_wake_time(),
                                     net.next_accept_time(kPort));
            if (wake == ~0ull || wake <= sys.clock().cycles()) {
                return false;
            }
            sys.clock().advance(wake - sys.clock().cycles());
        }
    }
    return true;
}

} // namespace

Outcome
web_proxy(uint64_t seed, Meter &meter)
{
    workloads::ProgramBuild frontend, backend;
    meter.time(Span::kBuild, [&] {
        frontend = workloads::build_program(
            workloads::proxy_frontend_source(), 768 << 10);
        backend = workloads::build_program(
            workloads::proxy_backend_source(), 768 << 10);
    });

    Outcome out;
    sgx::Platform platform;
    host::NetSim net(platform.clock());
    host::HostFileStore files;
    std::unique_ptr<libos::OcclumSystem> sys;
    int frontend_pid = -1;
    meter.time(Span::kBoot, [&] {
        files.put("proxy_frontend", frontend.occlum);
        files.put("proxy_backend", backend.occlum);
        auto config = bench::occlum_config();
        config.cores = kCores;
        sys = std::make_unique<libos::OcclumSystem>(platform, files, config,
                                                    &net);
        auto pid = sys->spawn(
            "proxy_frontend",
            {"proxy_frontend", std::to_string(kRequests),
             std::to_string(kIdle + kClients + 16)});
        out.check(pid.ok(), "spawn proxy_frontend");
        frontend_pid = pid.ok() ? pid.value() : -1;
        sys->run(/*allow_idle=*/true); // frontend + backends parked
        // The idle herd: connected, accepted into the epoll set, and
        // silent for the whole run.
        for (int i = 0; i < kIdle; ++i) {
            out.check(net.connect(kPort).ok(), "idle connect");
        }
        out.check(pump(*sys, net,
                       [&] { return net.next_accept_time(kPort) == ~0ull; }),
                  "idle connections accepted");
        sys->run(/*allow_idle=*/true);
    });
    if (frontend_pid < 0 || !out.errors.empty()) {
        out.failed = out.attempted = kRequests;
        return out;
    }

    Rng rng(seed ^ 0x7765625f70727879ull);
    std::vector<Client> clients(kClients);
    uint64_t t0 = platform.clock().cycles();
    for (Client &c : clients) {
        c.start_at = t0 + rng.next_below(kStaggerCycles);
    }

    meter.start_timed();
    meter.leg_begin(platform.clock());
    int issued = 0, completed = 0, bad = 0;
    uint64_t rounds = 0, last_done = t0;
    Aggregate latencies_us;
    auto start_request = [&](Client &c) {
        ++issued;
        auto conn = meter.time(Span::kClient, [&] {
            auto r = net.connect(kPort);
            if (r.ok()) {
                net.send(r.value(), false,
                         reinterpret_cast<const uint8_t *>(kRequest),
                         std::strlen(kRequest));
            }
            return r;
        });
        if (!conn.ok()) {
            ++bad;
            return;
        }
        c.conn = conn.value();
        c.connected_at = platform.clock().cycles();
        c.received = 0;
        c.intact = true;
    };
    const std::string page = expected_page();
    uint8_t buf[4096];
    while (completed + bad < kRequests) {
        bool progress = false;
        uint64_t now = platform.clock().cycles();
        for (Client &c : clients) {
            if (c.start_at <= now) {
                c.start_at = ~0ull;
                start_request(c);
                progress = true;
            }
        }
        progress |= meter.time(Span::kRun, [&] { return sys->step_round(); });
        ++rounds;
        meter.drain_if_full();
        uint64_t wake = ~0ull;
        for (Client &c : clients) {
            wake = std::min(wake, c.start_at);
            if (!c.conn) {
                continue;
            }
            uint64_t next_arrival = ~0ull;
            size_t n = meter.time(Span::kClient, [&] {
                return net.recv(c.conn, false, buf, sizeof(buf),
                                platform.clock().cycles(), next_arrival);
            });
            wake = std::min(wake, next_arrival);
            if (n == 0) {
                continue;
            }
            progress = true;
            c.intact = c.intact && c.received + n <= kResponseBytes &&
                       page.compare(c.received, n,
                                    reinterpret_cast<const char *>(buf),
                                    n) == 0;
            c.received += n;
            if (c.received < kResponseBytes) {
                continue;
            }
            meter.time(Span::kClient, [&] { net.close(c.conn, false); });
            c.conn = nullptr;
            bool ok = c.received == kResponseBytes && c.intact;
            (ok ? completed : bad) += 1;
            last_done = platform.clock().cycles();
            latencies_us.add(
                SimClock::cycles_to_micros(last_done - c.connected_at));
            if (issued < kRequests) {
                start_request(c);
            }
        }
        if (!progress) {
            wake = std::min(wake, sys->next_wake_time());
            if (wake == ~0ull || wake <= platform.clock().cycles()) {
                out.check(false, "proxy stalled with requests in flight");
                break;
            }
            platform.clock().advance(wake - platform.clock().cycles());
        }
    }
    uint64_t visits =
        trace::Registry::instance().counter("kernel.sched_visits").value();
    meter.time(Span::kRun, [&] { sys->run(/*allow_idle=*/true); });
    meter.leg_end(platform.clock());
    meter.stop_timed();

    out.attempted = kRequests;
    out.failed = kRequests - completed;
    out.check(completed == issued && issued == kRequests,
              "completed requests equal issued requests");
    out.check(bad == 0,
              "every response is the 10240-byte page, starting with the "
              "status line");
    auto code = sys->exit_code(frontend_pid);
    out.check(code.ok() && code.value() == 0, "frontend exits 0");
    for (int p : sys->death_order()) {
        auto record = sys->death_record(p);
        out.check(record.ok() &&
                      record.value().cause == oskit::DeathCause::kExited &&
                      record.value().code == 0,
                  "pid " + std::to_string(p) + " exits 0");
    }

    double serve_s = SimClock::cycles_to_seconds(last_done - t0);
    out.sim["sim_ms"] = serve_s * 1e3;
    out.sim["rps"] = serve_s > 0 ? completed / serve_s : 0.0;
    out.sim["req_p50_us"] = latencies_us.percentile(50);
    out.sim["req_p99_us"] = latencies_us.percentile(99);
    out.sim["kernel.visits_per_round"] =
        rounds ? static_cast<double>(visits) / static_cast<double>(rounds)
               : 0.0;
    return out;
}

} // namespace occlum::perfbench
