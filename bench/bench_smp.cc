/**
 * @file
 * SMP scaling: the per-core run-queue scheduler (DESIGN.md §3.4)
 * swept over cores {1, 2, 4, 8}.
 *
 * Leg A — spawn/compute throughput: a parent SIP spawns N children
 * (N in {4, 64, 256}), each crunching a fixed loop, and reaps them
 * all. Every runnable SIP runs one quantum per round; with one core
 * the quanta serialize, with C cores the C queue walks overlap in
 * simulated time, so aggregate jobs/s must rise monotonically from
 * 1 to 4 cores once the SIP count exceeds the core count.
 *
 * Leg B — lighttpd-epoll leg: the epoll reverse proxy (frontend +
 * 4 backend SIPs) under closed-loop clients. The backends render
 * pages concurrently on separate cores, so req/s must not regress
 * as cores are added.
 *
 * Both legs report the per-core kernel.core<N>.{quanta, steals,
 * wakeups} metrics, showing where quanta actually ran and how much
 * work the stealing moved.
 */
#include "bench/bench_util.h"

#include "trace/metrics.h"

using namespace occlum;

namespace {

constexpr int kCoreSweep[] = {1, 2, 4, 8};
constexpr int kMaxCores = 8;

/** Per-core counter deltas across one benchmark run. */
struct CoreDeltas {
    uint64_t quanta[kMaxCores] = {};
    uint64_t steals[kMaxCores] = {};
    uint64_t wakeups[kMaxCores] = {};
};

class CoreMeter
{
  public:
    explicit CoreMeter(int cores) : cores_(cores)
    {
        if (cores_ < 2) {
            return; // per-core counters exist only when cores > 1
        }
        for (int c = 0; c < cores_; ++c) {
            quanta0_[c] = ctr(c, "quanta");
            steals0_[c] = ctr(c, "steals");
            wakeups0_[c] = ctr(c, "wakeups");
        }
    }

    CoreDeltas
    finish() const
    {
        CoreDeltas d;
        for (int c = 0; c < cores_ && cores_ > 1; ++c) {
            d.quanta[c] = ctr(c, "quanta") - quanta0_[c];
            d.steals[c] = ctr(c, "steals") - steals0_[c];
            d.wakeups[c] = ctr(c, "wakeups") - wakeups0_[c];
        }
        return d;
    }

  private:
    static uint64_t
    ctr(int core, const char *what)
    {
        return trace::Registry::instance()
            .counter("kernel.core" + std::to_string(core) + "." + what)
            .value();
    }

    int cores_;
    uint64_t quanta0_[kMaxCores] = {};
    uint64_t steals0_[kMaxCores] = {};
    uint64_t wakeups0_[kMaxCores] = {};
};

void
report_cores(bench::JsonReport &report, const std::string &label,
             int cores, const CoreDeltas &d)
{
    for (int c = 0; c < cores && cores > 1; ++c) {
        std::string prefix = "core" + std::to_string(c) + "_";
        report.add(label, prefix + "quanta",
                   static_cast<double>(d.quanta[c]));
        report.add(label, prefix + "steals",
                   static_cast<double>(d.steals[c]));
        report.add(label, prefix + "wakeups",
                   static_cast<double>(d.wakeups[c]));
    }
}

// ---------------------------------------------------------------------
// Leg A: spawn/compute throughput, cores x SIPs
// ---------------------------------------------------------------------

std::string
crunch_source()
{
    return R"(
func main() {
    var i = 0;
    while (i < 50000) { i = i + 1; }
    return 7;
}
)";
}

std::string
storm_source(int jobs)
{
    // Spawn `jobs` crunchers, then reap them all. The pid array is
    // sized for the largest sweep point.
    return std::string(R"(
global byte child[8] = "crunch";
global int pids[256];
func main() {
    var argvv[1];
    argvv[0] = child;
    var n = )") +
           std::to_string(jobs) + R"(;
    var i = 0;
    while (i < n) {
        pids[i] = spawn(child, argvv, 1);
        if (pids[i] < 0) { return 1; }
        i = i + 1;
    }
    i = 0;
    while (i < n) {
        if (waitpid(pids[i]) != 7) { return 2; }
        i = i + 1;
    }
    return 0;
}
)";
}

void
spawn_leg(bench::JsonReport &report)
{
    workloads::ProgramBuild crunch =
        workloads::build_program(crunch_source(), 768 << 10);

    Table table("SMP leg A: N compute SIPs reaped by a parent "
                "(jobs/s, LinuxSystem)");
    table.set_header({"SIPs", "1 core", "2 cores", "4 cores",
                      "8 cores", "4c vs 1c"});

    for (int jobs : {4, 64, 256}) {
        workloads::ProgramBuild storm =
            workloads::build_program(storm_source(jobs), 768 << 10);
        double rate[kMaxCores + 1] = {};
        std::vector<std::string> cells = {std::to_string(jobs)};
        for (int cores : kCoreSweep) {
            SimClock clock;
            host::HostFileStore files;
            files.put("crunch", crunch.plain);
            files.put("storm", storm.plain);
            baseline::LinuxSystem sys(clock, files);
            sys.set_cores(cores);
            CoreMeter meter(cores);
            double seconds = bench::timed_run(sys, "storm", {"storm"});
            rate[cores] = jobs / seconds;
            std::string label =
                "c" + std::to_string(cores) + "-n" + std::to_string(jobs);
            report.add(label, "jobs_per_s", rate[cores]);
            report_cores(report, label, cores, meter.finish());
            cells.push_back(format("%.0f", rate[cores]));
        }
        cells.push_back(format("%.2fx", rate[4] / rate[1]));
        table.add_row(cells);

        // The acceptance bar: with more SIPs than cores, aggregate
        // throughput rises monotonically from 1 to 4 cores.
        if (jobs >= 64) {
            OCC_CHECK_MSG(rate[2] > rate[1],
                          "2 cores must beat 1 core at 64+ SIPs");
            OCC_CHECK_MSG(rate[4] > rate[2],
                          "4 cores must beat 2 cores at 64+ SIPs");
        }
    }
    table.print();
    std::printf("\nChildren are pure compute: every runnable SIP runs "
                "one quantum per round, and the C cores' walks overlap "
                "in simulated time, so jobs/s scales until the "
                "runnable set is thinner than the core count.\n");
}

// ---------------------------------------------------------------------
// Leg B: the epoll reverse proxy under closed-loop clients
// ---------------------------------------------------------------------

constexpr uint16_t kPort = 8080;
constexpr size_t kResponseBytes = 10240;

double
drive_clients(oskit::Kernel &sys, host::NetSim &net, int concurrency,
              int total_requests)
{
    struct Client {
        host::NetSim::Connection *conn = nullptr;
        size_t received = 0;
    };
    std::vector<Client> clients(concurrency);
    const char *request = "GET /page.html HTTP/1.1\r\n\r\n";
    int issued = 0;
    int completed = 0;

    auto start_request = [&](Client &client) {
        if (issued >= total_requests) {
            client.conn = nullptr;
            return;
        }
        auto conn = net.connect(kPort);
        OCC_CHECK_MSG(conn.ok(), conn.error().message);
        client.conn = conn.value();
        client.received = 0;
        net.send(client.conn, false,
                 reinterpret_cast<const uint8_t *>(request),
                 strlen(request));
        ++issued;
    };

    uint64_t t0 = sys.clock().cycles();
    for (auto &client : clients) {
        start_request(client);
    }

    uint8_t buf[4096];
    while (completed < total_requests) {
        bool progress = sys.step_round();
        for (auto &client : clients) {
            if (!client.conn) {
                continue;
            }
            uint64_t next_arrival = ~0ull;
            size_t n = net.recv(client.conn, false, buf, sizeof(buf),
                                sys.clock().cycles(), next_arrival);
            if (n > 0) {
                client.received += n;
                progress = true;
                if (client.received >= kResponseBytes) {
                    net.close(client.conn, false);
                    ++completed;
                    start_request(client);
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
                net.recv(client.conn, false, buf, 0,
                         sys.clock().cycles(), next_arrival);
                wake = std::min(wake, next_arrival);
            }
            OCC_CHECK_MSG(wake != ~0ull, "smp proxy leg stalled");
            OCC_CHECK(wake > sys.clock().cycles());
            sys.clock().advance(wake - sys.clock().cycles());
        }
    }
    double seconds =
        SimClock::cycles_to_seconds(sys.clock().cycles() - t0);
    return total_requests / seconds;
}

void
proxy_leg(bench::JsonReport &report)
{
    workloads::ProgramBuild frontend = workloads::build_program(
        workloads::proxy_frontend_source(), 768 << 10);
    workloads::ProgramBuild backend = workloads::build_program(
        workloads::proxy_backend_source(), 768 << 10);
    constexpr int kConcurrency = 8;
    constexpr int kRequests = 256;

    Table table("SMP leg B: epoll reverse proxy, 4 backend SIPs "
                "(req/s, OcclumSystem)");
    table.set_header({"cores", "req/s", "total steals",
                      "cross-core wakeups"});

    double rps1 = 0;
    for (int cores : kCoreSweep) {
        sgx::Platform platform;
        host::NetSim net(platform.clock());
        host::HostFileStore files;
        files.put("proxy_frontend", frontend.occlum);
        files.put("proxy_backend", backend.occlum);
        libos::OcclumSystem::Config config = bench::occlum_config();
        config.cores = cores;
        libos::OcclumSystem sys(platform, files, config, &net);
        auto pid = sys.spawn("proxy_frontend",
                             {"proxy_frontend",
                              std::to_string(kRequests),
                              std::to_string(kConcurrency + 16)});
        OCC_CHECK_MSG(pid.ok(), pid.error().message);
        sys.run(/*allow_idle=*/true); // frontend + backends parked
        CoreMeter meter(cores);
        double rps = drive_clients(sys, net, kConcurrency, kRequests);
        sys.run(/*allow_idle=*/true); // frontend reaps its backends
        auto code = sys.exit_code(pid.value());
        OCC_CHECK_MSG(code.ok() && code.value() == 0,
                      "proxy frontend must exit cleanly");
        CoreDeltas d = meter.finish();
        uint64_t steals = 0;
        uint64_t wakeups = 0;
        for (int c = 0; c < cores; ++c) {
            steals += d.steals[c];
            wakeups += d.wakeups[c];
        }
        std::string label = "proxy-c" + std::to_string(cores);
        report.add(label, "rps", rps);
        report_cores(report, label, cores, d);
        table.add_row({std::to_string(cores), format("%.0f", rps),
                       std::to_string(steals),
                       std::to_string(wakeups)});
        if (cores == 1) {
            rps1 = rps;
        } else {
            // The pipeline is I/O-bound, so the win is modest — but
            // extra cores must never make it slower.
            OCC_CHECK_MSG(rps >= rps1 * 0.98,
                          "proxy req/s must not regress with cores");
        }
    }
    table.print();
    std::printf("\nThe frontend and its 4 backends spread over the "
                "cores: backends render pages concurrently while the "
                "frontend multiplexes sockets.\n");
}

} // namespace

int
main()
{
    bench::JsonReport report("smp");
    spawn_leg(report);
    proxy_leg(report);
    report.write();
    return 0;
}
