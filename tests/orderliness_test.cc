/**
 * @file
 * Adversarial battery for the transition-orderliness monitor
 * (src/sgx/monitor.h, DESIGN.md §9): the automaton itself, the
 * SmashEx-shaped attacks it must refuse (nested EENTER and rebind on
 * an occupied SSA frame, NSSA=1), a field-by-field audit that the
 * post-AEX scrub leaks nothing SSA-resident, AEX storms at
 * syscall-trampoline boundaries and per-core rebind points across
 * cores {1,2,4}, every scripts/ci_faults.sh plan, and a one-shot
 * AEX-at-ordinal sweep over the epoll reverse proxy asserting
 * bit-identical completion order run-to-run with zero violations.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "faultsim/faultsim.h"
#include "host/host.h"
#include "libos/occlum_system.h"
#include "sgx/monitor.h"
#include "sgx/sgx.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace occlum {
namespace {

using faultsim::FaultPlan;
using faultsim::FaultSim;
using faultsim::ScopedFaultPlan;
using faultsim::Site;
using sgx::TcsPhase;
using sgx::Transition;
using sgx::TransitionMonitor;

constexpr uint64_t kEnclaveBase = 0x10000000;

/** Force-enable the monitor (and optionally un-strict it) for the
 *  scope of a test, restoring whatever the environment configured.
 *  The unit tests below feed the monitor deliberate violations, which
 *  under OCCLUM_ORDERLINESS=strict would (correctly) panic. */
struct ScopedMonitorMode {
    bool enabled0;
    bool strict0;
    explicit ScopedMonitorMode(bool strict = false)
        : enabled0(TransitionMonitor::instance().enabled()),
          strict0(TransitionMonitor::instance().strict())
    {
        TransitionMonitor::instance().set_enabled(true);
        TransitionMonitor::instance().set_strict(strict);
    }
    ~ScopedMonitorMode()
    {
        TransitionMonitor::instance().set_enabled(enabled0);
        TransitionMonitor::instance().set_strict(strict0);
    }
};

// ---------------------------------------------------------------------
// The automaton itself
// ---------------------------------------------------------------------

TEST(MonitorAutomaton, LegalRoundTripAdvancesThePhase)
{
    ScopedMonitorMode mode;
    TransitionMonitor &mon = TransitionMonitor::instance();
    const uint64_t violations0 = mon.violations();
    const uint64_t events0 = mon.events();

    int tcs = mon.register_tcs(TcsPhase::kOutside);
    EXPECT_TRUE(mon.record(tcs, Transition::kEenter, 10));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kInside);
    EXPECT_TRUE(mon.record(tcs, Transition::kAex, 20));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kAexed);
    EXPECT_TRUE(mon.record(tcs, Transition::kEresume, 30));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kInside);
    EXPECT_TRUE(mon.record(tcs, Transition::kEexit, 40));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kOutside);
    // BIND is legal outside and inside, never mid-AEX.
    EXPECT_TRUE(mon.record(tcs, Transition::kBind, 50));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kOutside);

    EXPECT_EQ(mon.violations(), violations0);
    EXPECT_EQ(mon.events(), events0 + 5);
}

TEST(MonitorAutomaton, RefusalsAreLegalEverywhereAndNeverAdvance)
{
    ScopedMonitorMode mode;
    TransitionMonitor &mon = TransitionMonitor::instance();
    const uint64_t violations0 = mon.violations();
    const uint64_t refusals0 = mon.refusals();

    int tcs = mon.register_tcs(TcsPhase::kAexed);
    for (Transition t :
         {Transition::kEenterRefused, Transition::kEexitRefused,
          Transition::kAexRefused, Transition::kEresumeRefused,
          Transition::kBindRefused}) {
        EXPECT_TRUE(mon.record(tcs, t, 1));
        EXPECT_EQ(mon.phase(tcs), TcsPhase::kAexed);
    }
    EXPECT_EQ(mon.refusals(), refusals0 + 5);
    EXPECT_EQ(mon.violations(), violations0);
}

TEST(MonitorAutomaton, IllegalTransitionsAreCountedNotServiced)
{
    ScopedMonitorMode mode(/*strict=*/false);
    TransitionMonitor &mon = TransitionMonitor::instance();
    const uint64_t violations0 = mon.violations();

    // AEX and ERESUME with no enclave context, EENTER while busy,
    // BIND mid-AEX: every edge the automaton must reject.
    int tcs = mon.register_tcs(TcsPhase::kOutside);
    EXPECT_FALSE(mon.record(tcs, Transition::kAex, 7));
    EXPECT_EQ(mon.phase(tcs), TcsPhase::kOutside); // not advanced
    EXPECT_FALSE(mon.record(tcs, Transition::kEresume, 8));
    EXPECT_FALSE(mon.record(tcs, Transition::kEexit, 9));

    int busy = mon.register_tcs(TcsPhase::kInside);
    EXPECT_FALSE(mon.record(busy, Transition::kEenter, 10));
    EXPECT_EQ(mon.phase(busy), TcsPhase::kInside);

    int aexed = mon.register_tcs(TcsPhase::kAexed);
    EXPECT_FALSE(mon.record(aexed, Transition::kBind, 11));
    EXPECT_FALSE(mon.record(aexed, Transition::kEenter, 12)); // SmashEx
    EXPECT_EQ(mon.phase(aexed), TcsPhase::kAexed);

    EXPECT_EQ(mon.violations(), violations0 + 6);
    ASSERT_FALSE(mon.violation_log().empty());
    const sgx::TransitionRecord &rec = mon.violation_log().back();
    EXPECT_TRUE(rec.illegal);
    EXPECT_EQ(rec.cycles, 12u);
}

// ---------------------------------------------------------------------
// SmashEx-shaped attacks against a real SgxThread
// ---------------------------------------------------------------------

std::unique_ptr<sgx::Enclave>
make_enclave(sgx::Platform &platform)
{
    auto enclave = std::make_unique<sgx::Enclave>(platform, kEnclaveBase,
                                                  uint64_t{1} << 20);
    EXPECT_TRUE(enclave->add_pages(kEnclaveBase, vm::kPageSize,
                                   vm::kPermRX)
                    .ok());
    EXPECT_TRUE(enclave->init().ok());
    return enclave;
}

TEST(SmashExBattery, NestedEenterOnOccupiedSsaFrameIsRefused)
{
    ScopedMonitorMode mode(/*strict=*/true); // a serviced one would panic
    TransitionMonitor &mon = TransitionMonitor::instance();
    const uint64_t violations0 = mon.violations();
    const uint64_t refusals0 = mon.refusals();

    sgx::Platform platform;
    auto enclave = make_enclave(platform);
    sgx::SgxThread thread(*enclave); // starts kInside

    // Take the asynchronous exit: the single SSA frame is now full.
    ASSERT_TRUE(thread.try_aex());
    ASSERT_TRUE(thread.in_aex());

    // The attack: re-enter while the exception context is parked.
    // Real SGX faults this EENTER (no free SSA frame, NSSA=1); the
    // simulation must refuse with EBUSY, not service it.
    Status entered = thread.enter();
    ASSERT_FALSE(entered.ok());
    EXPECT_EQ(entered.code(), ErrorCode::kBusy);
    EXPECT_TRUE(thread.in_aex()); // phase untouched by the refusal

    // ...and ERESUME is still the one legal way forward.
    ASSERT_TRUE(thread.try_resume());
    EXPECT_FALSE(thread.in_aex());

    EXPECT_EQ(mon.violations(), violations0);
    EXPECT_GE(mon.refusals(), refusals0 + 1);
}

TEST(SmashExBattery, RebindMidAexIsRefusedAndRecorded)
{
    ScopedMonitorMode mode(/*strict=*/true);
    TransitionMonitor &mon = TransitionMonitor::instance();
    const uint64_t violations0 = mon.violations();
    const uint64_t refusals0 = mon.refusals();

    sgx::Platform platform;
    auto enclave = make_enclave(platform);
    vm::Cpu first(enclave->mem());
    vm::Cpu second(enclave->mem());
    sgx::SgxThread thread(*enclave, first);

    ASSERT_TRUE(thread.try_aex());
    EXPECT_FALSE(thread.try_bind(second)); // would orphan the SSA frame
    EXPECT_EQ(&thread.cpu(), &first);

    ASSERT_TRUE(thread.try_resume());
    EXPECT_TRUE(thread.try_bind(second)); // legal again after ERESUME
    EXPECT_EQ(&thread.cpu(), &second);

    EXPECT_EQ(mon.violations(), violations0);
    EXPECT_GE(mon.refusals(), refusals0 + 1);
}

TEST(SmashExBattery, AexScrubLeaksNoSsaResidentField)
{
    // If vm::CpuState grows a field, this walk silently goes stale —
    // fail the build instead so the scrub audit gets extended.
    static_assert(sizeof(vm::CpuState) ==
                      sizeof(std::array<uint64_t, isa::kNumRegs>) +
                          sizeof(std::array<vm::BoundReg,
                                            isa::kNumBndRegs>) +
                          16 /* Flags (padded) + rip */,
                  "vm::CpuState changed: extend the scrub walk below");

    sgx::Platform platform;
    auto enclave = make_enclave(platform);
    sgx::SgxThread thread(*enclave);

    // Stamp a recognizable secret into every architectural field the
    // SSA snapshot covers.
    vm::CpuState secret;
    for (int i = 0; i < isa::kNumRegs; ++i) {
        secret.regs[i] = 0x5ec2e7005ec2e700ull + i;
    }
    for (int i = 0; i < isa::kNumBndRegs; ++i) {
        secret.bnds[i] = vm::BoundReg{0x1000ull + i, 0x2000ull + i};
    }
    secret.flags.zf = true;
    secret.flags.sf = true;
    secret.flags.cf = true;
    secret.flags.of = true;
    secret.rip = 0x4242;
    thread.cpu().set_state(secret);

    ASSERT_TRUE(thread.try_aex());

    // Walk every field of the host-visible state: nothing stamped may
    // survive the scrub.
    const vm::CpuState &host = thread.cpu().state();
    for (int i = 0; i < isa::kNumRegs; ++i) {
        EXPECT_EQ(host.regs[i], 0xae00ae00ae00ae00ull + i) << "reg " << i;
    }
    for (int i = 0; i < isa::kNumBndRegs; ++i) {
        EXPECT_EQ(host.bnds[i].lo, 0u) << "bnd " << i;
        EXPECT_EQ(host.bnds[i].hi, ~0ull) << "bnd " << i;
    }
    EXPECT_FALSE(host.flags.zf); // comparison flags are an SSA field
    EXPECT_FALSE(host.flags.sf); // too: cmp results leak a secret's
    EXPECT_FALSE(host.flags.cf); // ordering one bit at a time
    EXPECT_FALSE(host.flags.of);
    EXPECT_EQ(host.rip, 0u);

    // ...and ERESUME restores every one of them exactly.
    ASSERT_TRUE(thread.try_resume());
    const vm::CpuState &back = thread.cpu().state();
    EXPECT_EQ(back.regs, secret.regs);
    for (int i = 0; i < isa::kNumBndRegs; ++i) {
        EXPECT_EQ(back.bnds[i].lo, secret.bnds[i].lo);
        EXPECT_EQ(back.bnds[i].hi, secret.bnds[i].hi);
    }
    EXPECT_TRUE(back.flags.zf && back.flags.sf && back.flags.cf &&
                back.flags.of);
    EXPECT_EQ(back.rip, secret.rip);
}

// ---------------------------------------------------------------------
// AEX storms over the Occlum system, cores x period
// ---------------------------------------------------------------------

crypto::Key128
vkey()
{
    crypto::Key128 key{};
    key[3] = 0x77;
    return key;
}

Bytes
build_signed(const std::string &source)
{
    auto out = toolchain::compile(source);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    verifier::Verifier verifier(vkey());
    auto signed_image = verifier.verify_and_sign(out.value().image);
    EXPECT_TRUE(signed_image.ok());
    return signed_image.value().serialize();
}

/** A parent spawning workers that hammer the syscall trampoline: each
 *  write() ends a quantum, so an AEX storm lands injections at the
 *  EEXIT/EENTER boundaries and at the per-core rebind points the SMP
 *  scheduler crosses when the SIPs migrate. */
const char *kWorkerSource = R"(
global byte msg[2] = ".";
func main() {
    var i = 0;
    var acc = 3;
    while (i < 120) {
        acc = acc * 17 + 5;
        write(1, msg, 1);
        i = i + 1;
    }
    return acc & 63;
}
)";

const char *kParentSource = R"(
global byte child[8] = "work";
global int pids[8];
func main() {
    var argvv[1];
    argvv[0] = child;
    var i = 0;
    while (i < 5) {
        pids[i] = spawn(child, argvv, 1);
        if (pids[i] < 0) { return 1; }
        i = i + 1;
    }
    var sum = 0;
    i = 0;
    while (i < 5) {
        sum = sum + waitpid(pids[i]);
        i = i + 1;
    }
    print_int(sum);
    return 0;
}
)";

struct StormResult {
    std::string console;
    int64_t exit_code = -1;
    uint64_t cycles = 0;
    uint64_t violations_delta = 0;
    uint64_t aex_fires_delta = 0;
};

StormResult
run_storm(int cores, uint64_t aex_every, uint64_t seed)
{
    // Restart any ambient OCCLUM_FAULT_PLAN's streams so repeated
    // runs replay the identical fault schedule.
    FaultSim::instance().reseed();
    std::unique_ptr<ScopedFaultPlan> scoped;
    if (aex_every != 0) {
        FaultPlan plan;
        plan.seed = seed;
        plan.aex_every = aex_every;
        scoped = std::make_unique<ScopedFaultPlan>(plan);
    }
    const uint64_t violations0 = TransitionMonitor::instance().violations();
    const uint64_t fires0 = FaultSim::instance().fires(Site::kAex);

    sgx::Platform platform;
    host::HostFileStore files;
    files.put("parent", build_signed(kParentSource));
    files.put("work", build_signed(kWorkerSource));
    libos::OcclumSystem::Config config;
    config.num_slots = 8;
    config.fs_blocks = 1 << 10;
    config.verifier_key = vkey();
    config.cores = cores;
    libos::OcclumSystem sys(platform, files, config);

    auto pid = sys.spawn("parent", {"parent"});
    EXPECT_TRUE(pid.ok());
    sys.run();

    StormResult r;
    r.console = sys.console();
    r.exit_code = sys.exit_code(pid.value()).value();
    r.cycles = sys.clock().cycles();
    r.violations_delta =
        TransitionMonitor::instance().violations() - violations0;
    r.aex_fires_delta = FaultSim::instance().fires(Site::kAex) - fires0;
    return r;
}

TEST(SmashExBattery, CoreThreadHoldsNoCpuOfADeadSip)
{
    // A core's TCS is bound to whichever SIP an injected AEX
    // interrupts. It used to stay bound until the core's next AEX, so
    // once that SIP died the TCS pointed at its freed CPU.
    ScopedMonitorMode mode(/*strict=*/true);
    FaultSim::instance().reseed();
    FaultPlan plan;
    plan.seed = 5;
    plan.aex_every = 512;
    ScopedFaultPlan scoped(plan);

    sgx::Platform platform;
    host::HostFileStore files;
    files.put("work", build_signed(kWorkerSource));
    libos::OcclumSystem::Config config;
    config.num_slots = 2;
    config.fs_blocks = 1 << 10;
    config.verifier_key = vkey();
    config.cores = 1;
    libos::OcclumSystem sys(platform, files, config);
    auto pid = sys.spawn("work", {"work"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    ASSERT_TRUE(sys.exit_code(pid.value()).ok());

    sgx::SgxThread *thread = sys.core_thread(0);
    ASSERT_NE(thread, nullptr); // the storm reached the core
    if (thread->bound()) {
        // Reads the dead SIP's CPU: a use-after-free under ASan.
        EXPECT_EQ(thread->cpu().instructions(), 0u);
    }
    EXPECT_FALSE(thread->bound());
}

TEST(OrderlinessBattery, AexStormsAcrossCoresProduceZeroViolations)
{
    ScopedMonitorMode mode(/*strict=*/true); // any illegal path panics
    for (int cores : {1, 2, 4}) {
        StormResult clean = run_storm(cores, 0, 0);
        ASSERT_EQ(clean.exit_code, 0) << "cores " << cores;
        EXPECT_EQ(clean.violations_delta, 0u);
        for (uint64_t period : {uint64_t{1}, uint64_t{64},
                                uint64_t{1024}}) {
            StormResult storm = run_storm(cores, period, 900 + period);
            StormResult again = run_storm(cores, period, 900 + period);
            EXPECT_EQ(storm.violations_delta, 0u)
                << "cores " << cores << " period " << period;
            EXPECT_GT(storm.aex_fires_delta, 0u)
                << "cores " << cores << " period " << period;
            // Transparent to the workload...
            EXPECT_EQ(storm.console, clean.console)
                << "cores " << cores << " period " << period;
            EXPECT_EQ(storm.exit_code, clean.exit_code);
            // ...and bit-identical run to run.
            EXPECT_EQ(storm.cycles, again.cycles)
                << "cores " << cores << " period " << period;
            EXPECT_EQ(storm.console, again.console);
        }
    }
}

TEST(OrderlinessBattery, EveryCiFaultPlanProducesZeroViolations)
{
    // The plan strings scripts/ci_faults.sh drives tier-1 with; plan 7
    // is the orderliness-strict AEX storm. Keep in sync with the
    // script.
    const char *kPlans[] = {
        "seed=101;aex_every=4096",
        "seed=202;dev_read_transient=0.02;dev_write_transient=0.02",
        "seed=303;net_drop=0.05;net_dup=0.05;net_short_read=0.25",
        "seed=404;net_drop=0.05;net_dup=0.05;aex_every=2048",
        "seed=505;net_drop=0.08;net_dup=0.08;net_short_read=0.25;"
        "aex_every=2048",
        "seed=606;net_drop=0.05;net_dup=0.05;net_short_read=0.25;"
        "aex_every=2048",
        "seed=777;aex_every=768",
    };
    ScopedMonitorMode mode(/*strict=*/true);
    for (const char *text : kPlans) {
        auto plan = FaultPlan::parse(text);
        ASSERT_TRUE(plan.ok()) << text;
        ScopedFaultPlan scoped(plan.value());
        const uint64_t violations0 =
            TransitionMonitor::instance().violations();

        sgx::Platform platform;
        host::HostFileStore files;
        files.put("parent", build_signed(kParentSource));
        files.put("work", build_signed(kWorkerSource));
        libos::OcclumSystem::Config config;
        config.num_slots = 8;
        config.fs_blocks = 1 << 10;
        config.verifier_key = vkey();
        config.cores = 4;
        libos::OcclumSystem sys(platform, files, config);
        auto pid = sys.spawn("parent", {"parent"});
        ASSERT_TRUE(pid.ok()) << text;
        sys.run();
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 0) << text;
        EXPECT_EQ(TransitionMonitor::instance().violations(), violations0)
            << text;
    }
}

// ---------------------------------------------------------------------
// One-shot AEX at an exact instruction ordinal, over the epoll proxy
// ---------------------------------------------------------------------

constexpr uint16_t kPort = 8080;
constexpr size_t kResponseBytes = 10240;
constexpr int kProxyRequests = 8;
constexpr int kProxyConcurrency = 2;

/** Closed-loop clients against the proxy (bench_smp leg B, sized for
 *  a test). Asserts on stall instead of spinning forever. */
void
drive_clients(oskit::Kernel &sys, host::NetSim &net)
{
    struct Client {
        host::NetSim::Connection *conn = nullptr;
        size_t received = 0;
    };
    std::vector<Client> clients(kProxyConcurrency);
    const char *request = "GET /page.html HTTP/1.1\r\n\r\n";
    int issued = 0;
    int completed = 0;

    auto start_request = [&](Client &client) {
        if (issued >= kProxyRequests) {
            client.conn = nullptr;
            return;
        }
        auto conn = net.connect(kPort);
        ASSERT_TRUE(conn.ok()) << conn.error().message;
        client.conn = conn.value();
        client.received = 0;
        net.send(client.conn, false,
                 reinterpret_cast<const uint8_t *>(request),
                 strlen(request));
        ++issued;
    };
    for (auto &client : clients) {
        start_request(client);
    }

    uint8_t buf[4096];
    uint64_t stall_guard = 0;
    while (completed < kProxyRequests) {
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
            ASSERT_NE(wake, ~0ull) << "proxy run stalled";
            if (wake <= sys.clock().cycles()) {
                ASSERT_LT(++stall_guard, 1000u) << "proxy run stalled";
                continue;
            }
            stall_guard = 0;
            sys.clock().advance(wake - sys.clock().cycles());
        }
    }
}

struct ProxyResult {
    std::vector<int> death_order;
    std::string console;
    uint64_t cycles = 0;
    uint64_t violations_delta = 0;
};

ProxyResult
run_proxy(const workloads::ProgramBuild &frontend,
          const workloads::ProgramBuild &backend, int cores,
          uint64_t aex_at)
{
    FaultSim::instance().reseed(); // see run_storm
    std::unique_ptr<ScopedFaultPlan> scoped;
    if (aex_at != 0) {
        FaultPlan plan;
        plan.seed = 1;
        plan.aex_at = aex_at;
        scoped = std::make_unique<ScopedFaultPlan>(plan);
    }
    const uint64_t violations0 = TransitionMonitor::instance().violations();

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

    auto pid = sys.spawn("proxy_frontend",
                         {"proxy_frontend",
                          std::to_string(kProxyRequests),
                          std::to_string(kProxyConcurrency + 16)});
    EXPECT_TRUE(pid.ok());
    sys.run(/*allow_idle=*/true); // frontend + backends parked
    drive_clients(sys, net);
    sys.run(/*allow_idle=*/true); // frontend reaps its backends

    ProxyResult r;
    auto code = sys.exit_code(pid.value());
    EXPECT_TRUE(code.ok() && code.value() == 0)
        << "cores " << cores << " aex_at " << aex_at;
    r.death_order = sys.death_order();
    r.console = sys.console();
    r.cycles = sys.clock().cycles();
    r.violations_delta =
        TransitionMonitor::instance().violations() - violations0;
    return r;
}

TEST(OrderlinessBattery, AexAtOrdinalSweepOverTheEpollProxy)
{
    ScopedMonitorMode mode(/*strict=*/true);
    workloads::ProgramBuild frontend = workloads::build_program(
        workloads::proxy_frontend_source(), 768 << 10);
    workloads::ProgramBuild backend = workloads::build_program(
        workloads::proxy_backend_source(), 768 << 10);

    for (int cores : {1, 4}) {
        ProxyResult clean = run_proxy(frontend, backend, cores, 0);
        EXPECT_EQ(clean.violations_delta, 0u);
        // One-shot injections across the run's life: early (spawn and
        // epoll setup), mid (request pipeline), late (teardown).
        for (uint64_t ordinal : {uint64_t{40}, uint64_t{400},
                                 uint64_t{4000}, uint64_t{20000},
                                 uint64_t{60000}, uint64_t{150000}}) {
            ProxyResult one =
                run_proxy(frontend, backend, cores, ordinal);
            ProxyResult two =
                run_proxy(frontend, backend, cores, ordinal);
            // Completion order matches the clean run: the interrupt
            // is transparent to what the SIPs compute and in which
            // order they finish...
            EXPECT_EQ(one.death_order, clean.death_order)
                << "cores " << cores << " aex_at " << ordinal;
            EXPECT_EQ(one.console, clean.console)
                << "cores " << cores << " aex_at " << ordinal;
            // ...and the perturbed timeline itself is bit-identical
            // run to run.
            EXPECT_EQ(one.cycles, two.cycles)
                << "cores " << cores << " aex_at " << ordinal;
            EXPECT_EQ(one.death_order, two.death_order)
                << "cores " << cores << " aex_at " << ordinal;
            EXPECT_EQ(one.violations_delta, 0u)
                << "cores " << cores << " aex_at " << ordinal;
            EXPECT_EQ(two.violations_delta, 0u)
                << "cores " << cores << " aex_at " << ordinal;
        }
    }
}

} // namespace
} // namespace occlum
