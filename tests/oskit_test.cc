/**
 * @file
 * Kernel-core and loader tests: domain layout invariants, PCB
 * contents, syscall edge cases (bad fds, EFAULT pointers, fd
 * inheritance, dup2), pipe semantics (EOF, EPIPE, backpressure), and
 * scheduler behaviour under blocking.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "base/rng.h"
#include "baseline/linux_system.h"
#include "faultsim/faultsim.h"
#include "isa/assembler.h"
#include "oskit/loader.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::oskit {
namespace {

oelf::Image
small_image()
{
    auto out = toolchain::compile("func main() { return 0; }");
    EXPECT_TRUE(out.ok());
    return out.value().image;
}

TEST(Loader, DomainLayoutInvariants)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    LoadOptions options;
    options.domain_id = 9;
    auto domain =
        load_image(space, image, 0x40000000, {"prog", "a1"}, options);
    ASSERT_TRUE(domain.ok());
    const LoadedDomain &d = domain.value();

    // Geometry: T | C | G1 | D | G2 with unmapped guards.
    EXPECT_EQ(d.c_begin, d.base + oelf::kTrampSize);
    EXPECT_EQ(d.d_begin,
              d.c_begin + image.code_region_size() + oelf::kGuardSize);
    EXPECT_FALSE(space.is_mapped(d.d_begin - oelf::kGuardSize,
                                 oelf::kGuardSize)); // G1
    EXPECT_FALSE(space.is_mapped(d.d_end, oelf::kGuardSize)); // G2
    EXPECT_TRUE(space.is_mapped(d.base,
                                oelf::kTrampSize +
                                    image.code_region_size()));
    EXPECT_TRUE(space.is_mapped(d.d_begin, d.d_end - d.d_begin));
    // Permissions: code RX (no W), data RW (no X).
    EXPECT_EQ(space.perms_at(d.c_begin), vm::kPermRX);
    EXPECT_EQ(space.perms_at(d.d_begin), vm::kPermRW);
    // Heap and stack live inside D.
    EXPECT_GE(d.heap_begin, d.d_begin);
    EXPECT_LE(d.mmap_end, d.d_end);
    EXPECT_LT(d.stack_top, d.d_end);

    // PCB fields.
    auto read64 = [&](uint64_t off) {
        uint64_t v = 0;
        EXPECT_EQ(space.read_raw(d.d_begin + off, &v, 8),
                  vm::AccessFault::kNone);
        return v;
    };
    EXPECT_EQ(read64(abi::kPcbTrampoline), d.base);
    EXPECT_EQ(read64(abi::kPcbDomainId), 9u);
    EXPECT_EQ(read64(abi::kPcbHeapBegin), d.heap_begin);
    EXPECT_EQ(read64(abi::kPcbHeapEnd), d.heap_end);
    EXPECT_EQ(read64(abi::kPcbArgc), 2u);

    // The trampoline starts with this domain's cfi_label.
    uint64_t gate = 0;
    EXPECT_EQ(space.read_raw(d.base, &gate, 8), vm::AccessFault::kNone);
    EXPECT_EQ(gate, isa::cfi_label_value(9));
}

TEST(Loader, CfiLabelsRewrittenToDomainId)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    LoadOptions options;
    options.domain_id = 0x1234;
    auto domain = load_image(space, image, 0x40000000, {"p"}, options);
    ASSERT_TRUE(domain.ok());
    // Every cfi_label in loaded code carries the new domain ID.
    Bytes code(image.code.size());
    ASSERT_EQ(space.read_raw(domain.value().c_begin, code.data(),
                             code.size()),
              vm::AccessFault::kNone);
    int found = 0;
    for (size_t i = 0; i + 8 <= code.size(); ++i) {
        if (std::equal(std::begin(isa::kCfiMagic),
                       std::end(isa::kCfiMagic), code.begin() + i)) {
            EXPECT_EQ(get_le<uint32_t>(code.data() + i + 4), 0x1234u);
            ++found;
            i += 7;
        }
    }
    EXPECT_GT(found, 0);
}

/**
 * Reference for the loader's label patching: copy the code and
 * rewrite it front to back, skipping past every match so a magic
 * inside a label's domain-ID field is not a second label.
 */
Bytes
sequential_rewrite(Bytes code, uint32_t domain_id)
{
    for (size_t i = 0; i + isa::kCfiLabelSize <= code.size(); ++i) {
        if (std::equal(std::begin(isa::kCfiMagic),
                       std::end(isa::kCfiMagic), code.begin() + i)) {
            set_le<uint32_t>(code.data() + i + 4, domain_id);
            i += isa::kCfiLabelSize - 1;
        }
    }
    return code;
}

/**
 * Seven pages of mostly-zero code: labels at offset 0, at the start
 * of page 2, straddling pages 3 and 4, one in page 4 whose domain-ID
 * field is the magic, and one filling the code's last 8 bytes. Pages
 * 1 and 5 are all zeros.
 */
oelf::Image
padded_label_image()
{
    uint32_t magic_id =
        static_cast<uint32_t>(isa::cfi_label_value(0) & 0xffffffffu);
    isa::Assembler a;
    auto pad_to = [&](size_t offset) {
        a.zero_fill(offset - a.size_estimate());
    };
    a.cfi_label(0);
    a.bind("spin");
    a.jmp("spin");
    pad_to(2 * vm::kPageSize);
    a.cfi_label(0);
    pad_to(4 * vm::kPageSize - 4);
    a.cfi_label(0);
    pad_to(4 * vm::kPageSize + 64);
    a.cfi_label(magic_id);
    a.raw(Bytes{1, 2, 3, 4});
    pad_to(7 * vm::kPageSize - isa::kCfiLabelSize);
    a.cfi_label(0);

    oelf::Image image;
    image.code = a.finish();
    image.heap_size = 1 << 16;
    image.stack_size = 1 << 14;
    image.code_reserve = 10 * vm::kPageSize;
    return image;
}

TEST(Loader, CopyFreeLoadMatchesSequentialRewrite)
{
    oelf::Image image = padded_label_image();
    ASSERT_EQ(image.code.size(), 7 * vm::kPageSize);
    for (bool rewrite : {true, false}) {
        vm::AddressSpace space;
        LoadOptions options;
        options.domain_id = 0x1234;
        options.rewrite_cfi = rewrite;
        auto domain = load_image(space, image, 0x40000000, {"p"}, options);
        ASSERT_TRUE(domain.ok());
        Bytes loaded(image.code_region_size());
        ASSERT_EQ(space.read_raw(domain.value().c_begin, loaded.data(),
                                 loaded.size()),
                  vm::AccessFault::kNone);
        Bytes expected =
            rewrite ? sequential_rewrite(image.code, 0x1234) : image.code;
        expected.resize(loaded.size(), 0);
        EXPECT_EQ(loaded, expected) << "rewrite_cfi=" << rewrite;
    }

    // The magic inside the domain-ID field at 4 pages + 64 is data of
    // the first label, not a second one: only the first is patched.
    Bytes patched = sequential_rewrite(image.code, 0x1234);
    size_t at = 4 * vm::kPageSize + 64;
    EXPECT_EQ(get_le<uint32_t>(patched.data() + at + 4), 0x1234u);
    EXPECT_EQ(get_le<uint32_t>(patched.data() + at + 8), 0x04030201u);
}

TEST(Loader, AllZeroCodePagesStayLazy)
{
    oelf::Image image = padded_label_image();
    vm::AddressSpace space;
    LoadOptions options;
    options.domain_id = 7;
    auto domain = load_image(space, image, 0x40000000, {"p"}, options);
    ASSERT_TRUE(domain.ok());
    uint64_t c_begin = domain.value().c_begin;
    Bytes code = sequential_rewrite(image.code, 7);
    for (uint64_t page = 0; page < image.code_region_size() / vm::kPageSize;
         ++page) {
        uint64_t off = page * vm::kPageSize;
        bool nonzero =
            off < code.size() &&
            std::any_of(code.begin() + off,
                        code.begin() + off + vm::kPageSize,
                        [](uint8_t b) { return b != 0; });
        EXPECT_EQ(space.resident_pages(c_begin + off, vm::kPageSize),
                  nonzero ? 1u : 0u)
            << "code page " << page;
    }
    // Pages 0, 2, 3, 4 and 6 hold label bytes; pages 1 and 5 and the
    // reservation past the code stay lazy.
    EXPECT_EQ(space.resident_pages(c_begin, image.code_region_size()), 5u);
}

TEST(Loader, ReusedSlotBumpsGenerationOnlyIfItsCodeWasFetched)
{
    oelf::Image image = padded_label_image();
    vm::AddressSpace space;
    uint64_t base = 0x40000000;
    ASSERT_TRUE(space
                    .map(base, oelf::kTrampSize + image.code_region_size(),
                         vm::kPermRX)
                    .ok());
    ASSERT_TRUE(space
                    .map(base + image.data_offset(),
                         image.data_region_size(), vm::kPermRW)
                    .ok());
    LoadOptions options;
    options.map_pages = false; // Occlum's preallocated slot
    auto first = load_image(space, image, base, {"p"}, options);
    ASSERT_TRUE(first.ok());

    // Reloading a slot whose code nobody fetched leaves other blocks
    // alone.
    uint64_t gen = space.code_generation();
    ASSERT_TRUE(load_image(space, image, base, {"p"}, options).ok());
    EXPECT_EQ(space.code_generation(), gen);

    // Once the old code was fetched, the reload must invalidate.
    uint8_t window[16];
    ASSERT_EQ(space.fetch(first.value().entry, window, sizeof(window)),
              vm::AccessFault::kNone);
    gen = space.code_generation();
    ASSERT_TRUE(load_image(space, image, base, {"p"}, options).ok());
    EXPECT_GT(space.code_generation(), gen);
}

TEST(Loader, RejectsOversizedArgv)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    std::vector<std::string> argv = {"p", std::string(2000, 'x')};
    EXPECT_FALSE(
        load_image(space, image, 0x40000000, argv, {}).ok());
}

// ---- syscall edge cases through the Linux personality -----------------

struct KernelHarness {
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

TEST(Syscalls, BadFdsReturnEbadf)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[8];
func main() {
    var e = 0;
    if (read(99, b, 8) != -9) { e = 1; }      // EBADF = 9
    if (write(42, b, 8) != -9) { e = e + 2; }
    if (close(7) != -9) { e = e + 4; }
    if (syscall(10, 88, 0, 0) != -9) { e = e + 8; } // lseek
    return e;
}
)"),
              0);
}

TEST(Syscalls, BadPointersReturnEfault)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    // Address far outside the process image.
    if (write(1, 0x7777777000, 8) != -14) { return 1; } // EFAULT
    var fds[2];
    if (syscall(8, 0x7777777000) != -14) { return 2; }  // pipe
    return 0;
}
)"),
              0);
}

TEST(Syscalls, PipeEofAndEpipe)
{
    KernelHarness h;
    // Writing to a pipe whose read end is gone kills the writer (the
    // SIGPIPE default action) — the write never returns -EPIPE into a
    // program that could spin on it forever against run(allow_idle).
    EXPECT_EQ(h.run(R"(
global byte b[16];
func main() {
    var fds[2];
    pipe(fds);
    write(fds[1], "xy", 2);
    close(fds[1]);                 // no more writers
    if (read(fds[0], b, 16) != 2) { return 1; }
    if (read(fds[0], b, 16) != 0) { return 2; }   // EOF
    var fds2[2];
    pipe(fds2);
    close(fds2[0]);                // no readers
    write(fds2[1], "z", 1);        // killed here
    return 3;                      // unreachable
}
)"),
              -32);
}

TEST(Regression, EpipeKillLeavesPipeShapedDeathRecord)
{
    // Reader closed *before* the write: the EPIPE kill must be
    // recorded as DeathCause::kPipe (not kFault) with -EPIPE as the
    // code, so wait()ers and post-mortems can tell SIGPIPE from a
    // crash.
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    var fds[2];
    pipe(fds);
    close(fds[0]);
    write(fds[1], "z", 1);
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
    EXPECT_EQ(record.value().code,
              -static_cast<int64_t>(ErrorCode::kPipe));
    EXPECT_EQ(record.value().fault, vm::FaultKind::kNone);
}

TEST(Regression, EpipeKillsBlockedWriterWhenReaderCloses)
{
    // The other close order: the writer blocks on a full pipe first,
    // *then* the last reader goes away. The blocked write's retry
    // must turn into the EPIPE kill — before the fix the writer
    // stayed blocked forever and run() only ended via allow_idle.
    KernelHarness h;
    auto child = toolchain::compile(R"(
func main() {
    // Spin long past the parent's fill loop (the sim is
    // deterministic: the parent is blocked well before this ends),
    // then drop the only read end.
    var i = 0;
    while (i < 200000) { i = i + 1; }
    close(0);
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("closer", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[12] = "closer";
global byte buf[4096];
func main() {
    var fds[2];
    pipe(fds);
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];   // child inherits the read end as stdin
    io3[1] = 1;
    io3[2] = 2;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 1; }
    close(fds[0]);     // the child holds the only read end now
    var i = 0;
    while (i < 16) {   // 16 * 4096 = the pipe's 64 KiB capacity
        if (write(fds[1], buf, 4096) != 4096) { return 2; }
        i = i + 1;
    }
    write(fds[1], buf, 1);  // blocks full; killed when the child closes
    return 3;               // unreachable
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    ASSERT_TRUE(h.sys.all_exited());
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
    EXPECT_EQ(record.value().code,
              -static_cast<int64_t>(ErrorCode::kPipe));
}

// ---- copy_from_user / copy_to_user hardening --------------------------

/**
 * A bare kernel with a permissive validate_user_range, standing in
 * for a personality (like Occlum's) whose override only checks region
 * *bounds* — so the copy helpers' own all-or-nothing mapping probe is
 * what is under test.
 */
struct RawKernel : Kernel {
    RawKernel(SimClock &clock, host::HostFileStore &files)
        : Kernel(clock, files)
    {}
    Result<std::unique_ptr<Process>>
    create_process(const std::string &,
                   const std::vector<std::string> &) override
    {
        return Error(ErrorCode::kNoSys, "raw kernel");
    }
    void destroy_process(Process &) override {}
    uint64_t syscall_cost() const override { return 0; }
    Result<FilePtr> fs_open(Process &, const std::string &,
                            uint64_t) override
    {
        return Error(ErrorCode::kNoSys, "raw kernel");
    }
    Status fs_unlink(const std::string &) override
    {
        return Status(ErrorCode::kNoSys, "raw kernel");
    }
    Status fs_mkdir(const std::string &) override
    {
        return Status(ErrorCode::kNoSys, "raw kernel");
    }
    Status validate_user_range(Process &, uint64_t, uint64_t) override
    {
        return Status(); // bounds-only personality: accept everything
    }
    /** Expose the protected dispatcher for direct syscall tests. */
    std::optional<int64_t>
    sys(Process &proc, abi::Sys num,
        const uint64_t args[abi::kSyscallArgs])
    {
        return dispatch(proc, static_cast<uint64_t>(num), args);
    }
};

struct HoleyHarness {
    SimClock clock;
    host::HostFileStore files;
    RawKernel kernel{clock, files};
    vm::AddressSpace space;
    Process proc;

    HoleyHarness()
    {
        // Two mapped pages around an unmapped hole:
        //   [0x1000,0x2000) mapped | [0x2000,0x3000) hole |
        //   [0x3000,0x4000) mapped
        EXPECT_TRUE(space.map(0x1000, 0x1000, vm::kPermRW).ok());
        EXPECT_TRUE(space.map(0x3000, 0x1000, vm::kPermRW).ok());
        proc.space = &space;
    }
};

TEST(Regression, PartialCopyAcrossUnmappedHole)
{
    HoleyHarness h;
    // Seed the first page with a sentinel pattern.
    Bytes sentinel(0x800, 0xcd);
    ASSERT_EQ(h.space.write_raw(0x1800, sentinel.data(),
                                sentinel.size()),
              vm::AccessFault::kNone);

    // copy_to_user spanning the hole must fail...
    Bytes payload(0x1000, 0x11);
    EXPECT_FALSE(h.kernel
                     .copy_to_user(h.proc, 0x1800, payload.data(),
                                   payload.size())
                     .ok());
    // ...and must not have scribbled the mapped prefix: before the
    // fix, write_raw modified [0x1800,0x2000) and then faulted,
    // leaving user memory half-updated behind an EFAULT.
    Bytes check(sentinel.size());
    ASSERT_EQ(h.space.read_raw(0x1800, check.data(), check.size()),
              vm::AccessFault::kNone);
    EXPECT_EQ(check, sentinel);

    // copy_from_user across the same hole also fails up front.
    Bytes out(0x1000, 0x00);
    EXPECT_FALSE(h.kernel
                     .copy_from_user(h.proc, 0x1800, out.data(),
                                     out.size())
                     .ok());

    // Fully-mapped ranges on both sides still work.
    EXPECT_TRUE(h.kernel
                    .copy_to_user(h.proc, 0x1000, payload.data(), 0x800)
                    .ok());
    EXPECT_TRUE(h.kernel
                    .copy_from_user(h.proc, 0x3000, out.data(), 0x800)
                    .ok());
}

TEST(Regression, CstringMaxLenClamped)
{
    SimClock clock;
    host::HostFileStore files;
    RawKernel kernel(clock, files);
    vm::AddressSpace space;
    Process proc;
    proc.space = &space;
    // 32 pages of 'a' with no terminator anywhere.
    ASSERT_TRUE(space.map(0x10000, 32 * vm::kPageSize,
                          vm::kPermRW).ok());
    Bytes fill(32 * vm::kPageSize, 'a');
    ASSERT_EQ(space.write_raw(0x10000, fill.data(), fill.size()),
              vm::AccessFault::kNone);

    // A hostile max_len is clamped to the 64 KiB ceiling instead of
    // walking (and allocating) until the first unmapped byte.
    auto res = kernel.read_user_cstring(proc, 0x10000, ~0ull);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrorCode::kNameTooLong);

    // A terminated string whose NUL is the last byte of the mapped
    // range (the page-chunked reader must not probe past it).
    uint64_t tail = 0x10000 + 32 * vm::kPageSize - 4;
    ASSERT_EQ(space.write_raw(tail, "hey", 4), vm::AccessFault::kNone);
    auto hey = kernel.read_user_cstring(proc, tail, 4096);
    ASSERT_TRUE(hey.ok());
    EXPECT_EQ(hey.value(), "hey");

    // An unterminated string running into unmapped memory faults.
    uint64_t edge = 0x10000 + 32 * vm::kPageSize - 8;
    ASSERT_EQ(space.write_raw(edge, "aaaaaaaa", 8),
              vm::AccessFault::kNone);
    auto bad = kernel.read_user_cstring(proc, edge, 4096);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::kFault);
}

TEST(Syscalls, Dup2RedirectsAndSharesOffset)
{
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
global byte b[32];
func main() {
    var fd = open(p, 0x42);   // CREAT|WRONLY
    dup2(fd, 1);              // stdout -> file
    print("to-file");
    close(fd);
    close(1);
    fd = open(p, 0);
    var n = read(fd, b, 32);
    return n;
}
)"),
              7);
}

TEST(Syscalls, WaitpidUnknownChildReturnsEchild)
{
    KernelHarness h;
    EXPECT_EQ(h.run("func main() { return waitpid(777); }"),
              -static_cast<int64_t>(ErrorCode::kChild));
}

TEST(Syscalls, GetPidAndTimeAdvance)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    if (getpid() < 1) { return 1; }
    var t0 = time_ns();
    var i = 0;
    while (i < 10000) { i = i + 1; }
    var t1 = time_ns();
    if (t1 <= t0) { return 2; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, KillTerminatesTarget)
{
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    while (1) { yield(); }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("spinner", out.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte s[12] = "spinner";
func main() {
    var argvv[1];
    argvv[0] = s;
    var pid = spawn(s, argvv, 1);
    kill(pid, 15);
    var status = waitpid(pid);
    return status == -15;
}
)"),
              1);
}

TEST(Syscalls, MmapExhaustionReturnsEnomem)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var total = 0;
    while (1) {
        var p = mmap(65536);
        if (p < 0) { return p == -12; }  // ENOMEM
        total = total + 1;
        if (total > 1000) { return 0; }  // should exhaust first
    }
    return 0;
}
)"),
              1);
}

TEST(Syscalls, FaultingProcessIsReapedWithFaultCause)
{
    KernelHarness h;
    auto out = toolchain::compile(
        "func main() { wstore(0x12345, 1); return 0; }");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kFault);
    EXPECT_EQ(record.value().fault_addr, 0x12345u);
}

TEST(Syscalls, ClosedFdsAreReusedLowestFirst)
{
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
func main() {
    var first = open(p, 0);
    if (first < 0) { return 1; }
    close(first);
    var i = 0;
    while (i < 10000) {
        var fd = open(p, 0);
        if (fd != first) { return 2; }  // must reuse the lowest free fd
        if (close(fd) != 0) { return 3; }
        i = i + 1;
    }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, PipeFillsLowestFreeDescriptors)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    close(0);                       // free stdin; 1 and 2 stay busy
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (fds[0] != 0) { return 2; }  // lowest hole first...
    if (fds[1] != 3) { return 3; }  // ...then the next one up
    return 0;
}
)"),
              0);
}

TEST(Syscalls, SixthSyscallArgumentArrivesIntact)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    // mmap(addr, len, prot, flags, fd, off): off rides in the sixth
    // argument register. A misaligned offset must reach the kernel
    // and be rejected; if arg 6 were dropped it would read as 0.
    if (syscall(12, 0, 4096, 3, 34, 0 - 1, 4097) != -22) { return 1; }
    // Aligned-but-nonzero offsets on anonymous maps are unsupported.
    if (syscall(12, 0, 4096, 3, 34, 0 - 1, 4096) != -38) { return 2; }
    // File-backed requests are routed on the fd in arg 5.
    if (syscall(12, 0, 4096, 3, 34, 7, 0) != -38) { return 3; }
    // The same call with fd = -1, off = 0 succeeds and is usable.
    var p = syscall(12, 0, 4096, 3, 34, 0 - 1, 0);
    if (p < 0) { return 4; }
    wstore(p, 4242);
    if (wload(p) != 4242) { return 5; }
    // Executable requests violate W^X.
    if (syscall(12, 0, 4096, 7, 34, 0 - 1, 0) != -1) { return 6; }
    return 0;
}
)"),
              0);
}

// ---- idle and wake-up accounting --------------------------------------

// ---- pipe ring buffer ---------------------------------------------------

/** A pipe with both ends held open, driven directly (no SIP). */
struct PipeHarness {
    KernelHarness h;
    std::shared_ptr<Pipe> pipe = std::make_shared<Pipe>();
    PipeEnd rd{pipe, true};
    PipeEnd wr{pipe, false};

    PipeHarness()
    {
        rd.on_fd_acquire();
        wr.on_fd_acquire();
    }
};

TEST(Pipe, RingMatchesDequeShadowAcrossWrap)
{
    // Seeded random read and write sizes, checked byte for byte
    // against a std::deque model of the old buffer. Sizes up to 3/4
    // of the capacity make the fill level walk between empty and full,
    // so writes and reads straddle the end of the ring many times.
    PipeHarness ph;
    std::deque<uint8_t> shadow;
    uint64_t rng = 0x853c49e6748fea9bull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    uint8_t stamp = 0;
    size_t head = 0; // the ring's read offset, mirrored for coverage
    int wrapped = 0, full_blocks = 0, empty_blocks = 0;
    for (int step = 0; step < 4000; ++step) {
        size_t len = next() % (Pipe::kCapacity * 3 / 4);
        if (next() & 1) {
            Bytes in(len);
            for (auto &b : in) {
                b = stamp++;
            }
            IoResult r = ph.wr.write(ph.h.sys, in.data(), len);
            size_t room = Pipe::kCapacity - shadow.size();
            if (room == 0) {
                ASSERT_TRUE(r.would_block) << "step " << step;
                ++full_blocks;
                continue;
            }
            size_t n = std::min(len, room);
            ASSERT_FALSE(r.would_block);
            ASSERT_EQ(r.value, static_cast<int64_t>(n)) << "step " << step;
            if (head + shadow.size() < Pipe::kCapacity &&
                head + shadow.size() + n > Pipe::kCapacity) {
                ++wrapped;
            }
            shadow.insert(shadow.end(), in.begin(), in.begin() + n);
        } else {
            Bytes out(len);
            IoResult r = ph.rd.read(ph.h.sys, out.data(), len);
            if (shadow.empty()) {
                ASSERT_TRUE(r.would_block) << "step " << step;
                ++empty_blocks;
                continue;
            }
            size_t n = std::min(len, shadow.size());
            ASSERT_EQ(r.value, static_cast<int64_t>(n)) << "step " << step;
            ASSERT_TRUE(std::equal(out.begin(), out.begin() + n,
                                   shadow.begin()))
                << "step " << step;
            shadow.erase(shadow.begin(), shadow.begin() + n);
            head = shadow.empty() ? 0 : (head + n) % Pipe::kCapacity;
        }
        ASSERT_EQ(ph.pipe->size(), shadow.size());
        EXPECT_EQ(ph.pipe->can_read(), !shadow.empty());
        EXPECT_EQ(ph.pipe->can_write(), shadow.size() < Pipe::kCapacity);
        EXPECT_EQ(ph.rd.poll_ready(ph.h.sys),
                  shadow.empty() ? 0u : uint64_t(abi::kPollIn));
        EXPECT_EQ(ph.wr.poll_ready(ph.h.sys),
                  shadow.size() < Pipe::kCapacity ? uint64_t(abi::kPollOut)
                                                  : 0u);
    }
    EXPECT_GT(wrapped, 10);
    EXPECT_GT(full_blocks, 0);
    EXPECT_GT(empty_blocks, 0);
}

TEST(Pipe, FullPipeBlocksWriterUntilDrained)
{
    PipeHarness ph;
    Bytes in(Pipe::kCapacity + 100, 0x5a);
    IoResult r = ph.wr.write(ph.h.sys, in.data(), in.size());
    EXPECT_EQ(r.value, static_cast<int64_t>(Pipe::kCapacity));
    EXPECT_FALSE(ph.pipe->can_write());
    EXPECT_EQ(ph.wr.poll_ready(ph.h.sys), 0u);
    EXPECT_TRUE(ph.wr.write(ph.h.sys, in.data(), 1).would_block);

    uint8_t out[10];
    EXPECT_EQ(ph.rd.read(ph.h.sys, out, sizeof(out)).value, 10);
    EXPECT_EQ(ph.wr.poll_ready(ph.h.sys), uint64_t(abi::kPollOut));
    EXPECT_EQ(ph.wr.write(ph.h.sys, in.data(), in.size()).value, 10);
    EXPECT_TRUE(ph.wr.write(ph.h.sys, in.data(), 1).would_block);
}

TEST(Pipe, EofAfterWriterClosesWithBytesBuffered)
{
    PipeHarness ph;
    Bytes in(100);
    for (size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<uint8_t>(i);
    }
    ASSERT_EQ(ph.wr.write(ph.h.sys, in.data(), in.size()).value, 100);
    ph.wr.on_fd_release(ph.h.sys);

    // Hangup with data still buffered: POLLIN and POLLHUP together,
    // the bytes drain in order, then reads see a clean EOF.
    EXPECT_EQ(ph.rd.poll_ready(ph.h.sys),
              uint64_t(abi::kPollIn | abi::kPollHup));
    EXPECT_TRUE(ph.pipe->can_read());
    Bytes out(100);
    EXPECT_EQ(ph.rd.read(ph.h.sys, out.data(), 60).value, 60);
    EXPECT_EQ(ph.rd.read(ph.h.sys, out.data() + 60, 100).value, 40);
    EXPECT_EQ(out, in);
    EXPECT_EQ(ph.rd.poll_ready(ph.h.sys), uint64_t(abi::kPollHup));
    IoResult eof = ph.rd.read(ph.h.sys, out.data(), out.size());
    EXPECT_FALSE(eof.would_block);
    EXPECT_EQ(eof.value, 0);
    EXPECT_TRUE(ph.pipe->can_read());
}

TEST(Kernel, AllowIdleReturnsWhenEveryProcessSleepsForever)
{
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    var fds[2];
    pipe(fds);
    var b[8];
    read(fds[0], b, 1);   // we hold the write end: blocks forever
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    // Every process is asleep with no wake-up time: run(allow_idle)
    // must return instead of spinning or panicking on deadlock.
    h.sys.run(/*allow_idle=*/true);
    EXPECT_FALSE(h.sys.all_exited());
    const Process *proc = h.sys.find_process(pid.value());
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->state, ProcState::kBlocked);
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
}

TEST(Kernel, NextWakeTimeIsInfiniteWithZeroRunnableProcesses)
{
    KernelHarness h;
    // No processes at all.
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
    h.sys.run(/*allow_idle=*/true); // returns immediately, no panic
    EXPECT_TRUE(h.sys.all_exited());
    // After every process has exited there is nothing to wake either.
    EXPECT_EQ(h.run("func main() { return 0; }"), 0);
    EXPECT_TRUE(h.sys.all_exited());
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
}

TEST(Kernel, RunAdvancesClockPastFiniteSleeps)
{
    // One process that must wait on simulated network latency twice:
    // once for its own connection to arrive at the listener, once for
    // the payload. With nothing else runnable the kernel has to jump
    // the clock to next_wake_time() for the program to finish at all.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto out = toolchain::compile(R"(
global byte msg[8] = "hello";
global byte buf[16];
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);         // sleeps until the SYN arrives
    if (s < 0) { return 3; }
    if (sock_send(c, msg, 5) != 5) { return 4; }
    var n = sock_recv(s, buf, 16);  // sleeps until the payload lands
    if (n != 5) { return 5; }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    uint64_t before = clock.cycles();
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    EXPECT_GT(clock.cycles(), before);
}

// ---- fd-lifecycle / EFAULT regression sweep ---------------------------

TEST(Regression, FailedPipeCopyRollsBackBothFds)
{
    // pipe() installed both descriptors before copying the fd pair
    // out; when the copy faulted the table kept two orphaned ends.
    // After a failed pipe() the next pipe() must land on the same
    // lowest slots — a leak shows up as higher numbers.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }          // learns slots 3,4
    close(fds[0]);
    close(fds[1]);
    if (syscall(8, 0x7777777000) != -14) { return 2; } // EFAULT
    var fds2[2];
    if (pipe(fds2) != 0) { return 3; }
    if (fds2[0] != fds[0]) { return 4; }       // leaked descriptor
    if (fds2[1] != fds[1]) { return 5; }
    return 0;
}
)"),
              0);
}

TEST(Regression, Dup2SelfDupIsNoOpWithBlockedPeer)
{
    // dup2(fd, fd) used to release-then-reacquire the file object.
    // The release edge is observable now that close notifies wait
    // queues: with a child blocked reading the pipe, the transient
    // "last writer gone" would wake it for nothing (or worse, close
    // a socket's connection half). POSIX says dup2(fd, fd) does
    // nothing and returns fd.
    KernelHarness h;
    auto child = toolchain::compile(R"(
global byte buf[8];
func main() {
    if (read(0, buf, 8) != 2) { return 9; }    // blocks, then "hi"
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("blocked_reader", child.value().image.serialize());
    auto &wasted =
        trace::Registry::instance().counter("kernel.wasted_retries");
    uint64_t wasted0 = wasted.value();
    EXPECT_EQ(h.run(R"(
global byte child[16] = "blocked_reader";
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];
    io3[1] = 1;
    io3[2] = 2;
    var pid = spawn_io(child, argvv, 1, io3);
    if (pid < 0) { return 2; }
    close(fds[0]);     // the child holds the only read end
    // Spin until the child is parked in read().
    var i = 0;
    while (i < 200000) { i = i + 1; }
    if (dup2(fds[1], fds[1]) != fds[1]) { return 3; }
    if (write(fds[1], "hi", 2) != 2) { return 4; }
    return waitpid(pid);
}
)"),
              0);
    // The self-dup must not have woken the blocked reader for nothing.
    EXPECT_EQ(wasted.value(), wasted0);
}

TEST(Regression, EfaultReadLeavesStreamIntact)
{
    // The kernel read data into its bounce buffer *before* checking
    // that the destination was writable; a faulting read() therefore
    // consumed the bytes. Destructive reads must probe first: after
    // -EFAULT the stream still holds the data.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (write(fds[1], "ab", 2) != 2) { return 2; }
    if (read(fds[0], 0x7777777000, 2) != -14) { return 3; } // EFAULT
    if (read(fds[0], b, 8) != 2) { return 4; }  // data survived
    if (bload(b) != 'a') { return 5; }
    if (bload(b + 1) != 'b') { return 6; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, WaitpidSelfReturnsEchild)
{
    // waitpid(getpid()) parked the caller on its own death: an
    // unwakeable deadlock. A process is not its own child — ECHILD.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    if (waitpid(getpid()) != -10) { return 1; } // ECHILD = 10
    return 0;
}
)"),
              0);
}

TEST(Regression, SendAfterPeerCloseIsPipeShapedDeath)
{
    // A send into a connection whose peer has closed used to succeed
    // silently; it now takes the same default-fatal SIGPIPE path as
    // pipes, recorded as DeathCause::kPipe.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto out = toolchain::compile(R"(
global byte msg[8] = "hello";
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);
    if (s < 0) { return 3; }
    close(c);                  // peer goes away
    sock_send(s, msg, 5);      // killed here
    return 7;                  // unreachable
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(),
              -static_cast<int64_t>(ErrorCode::kPipe));
    auto record = sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
}

// ---- poll() semantics -------------------------------------------------

TEST(Poll, TimeoutExpiresWithNothingReady)
{
    // One pollfd on an empty pipe's read end, finite timeout: poll
    // must come back 0 after the deadline, and simulated time must
    // actually have passed.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    pfds[0] = fds[0];
    pfds[1] = 0x1;             // POLLIN
    pfds[2] = 0x7;             // stale garbage the kernel must clear
    var t0 = time_ns();
    var r = poll(pfds, 1, 1000000);   // 1 ms
    if (r != 0) { return 2; }
    if (pfds[2] != 0) { return 3; }
    if (time_ns() - t0 < 1000000) { return 4; }
    return 0;
}
)"),
              0);
}

TEST(Poll, ReadinessEdgeWhenPeerCloses)
{
    // The parent blocks in poll() on the read end; the child exits
    // (dropping the inherited last write end) long after the parent
    // is parked. The close edge must wake the poller with POLLHUP —
    // and *only* POLLHUP: the pipe is drained, so POLLIN here would
    // send the caller into a 0-byte read loop instead of announcing
    // the hangup. The read then sees a clean EOF.
    KernelHarness h;
    auto child = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; }
    return 0;                  // exit drops the write end
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("closer", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "closer";
global byte buf[8];
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = 0;
    io3[1] = fds[1];           // child stdout = the write end
    io3[2] = 2;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 2; }
    close(fds[1]);             // the child holds the only writer
    pfds[0] = fds[0];
    pfds[1] = 0x1;             // POLLIN
    pfds[2] = 0;
    var r = poll(pfds, 1, 0 - 1);     // block until the edge
    if (r != 1) { return 3; }
    if (pfds[2] != 0x10) { return 4; }  // POLLHUP alone: no data left
    if (read(fds[0], buf, 8) != 0) { return 5; } // EOF
    return 0;
}
)"),
              0);
}

TEST(Poll, DeadFdReportsNvalAndNegativeFdIsSkipped)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global int pfds[6];
func main() {
    pfds[0] = 99;              // never-opened descriptor
    pfds[1] = 0x1;
    pfds[2] = 0;
    pfds[3] = 0 - 1;           // negative: skipped per POSIX
    pfds[4] = 0x1;
    pfds[5] = 0x7;
    var r = poll(pfds, 2, 0 - 1);
    if (r != 1) { return 1; }         // NVAL counts as ready
    if (pfds[2] != 0x20) { return 2; }  // POLLNVAL
    if (pfds[5] != 0) { return 3; }     // skipped fd: revents cleared
    return 0;
}
)"),
              0);
}

TEST(Poll, PipeHupWithBufferedDataStillReadable)
{
    // Writer-gone with bytes still buffered: the read end must show
    // POLLIN|POLLHUP while data remains, then POLLHUP alone once
    // drained. Before the fix the read end reported POLLIN forever
    // after the writer closed, even on an empty pipe.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte buf[8];
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (write(fds[1], "hi", 2) != 2) { return 2; }
    close(fds[1]);
    pfds[0] = fds[0];
    pfds[1] = 0x1;
    pfds[2] = 0;
    if (poll(pfds, 1, 0) != 1) { return 3; }
    if (pfds[2] != 0x11) { return 4; }   // data AND hangup
    if (read(fds[0], buf, 8) != 2) { return 5; }
    if (poll(pfds, 1, 0) != 1) { return 6; }
    if (pfds[2] != 0x10) { return 7; }   // drained: hangup only
    if (read(fds[0], buf, 8) != 0) { return 8; } // clean EOF
    return 0;
}
)"),
              0);
}

TEST(Regression, SharedSocketSurvivesCloseByOneSip)
{
    // A connection's server/client half is shared between two SIPs
    // (spawn fd inheritance). One SIP closing its descriptor used to
    // tear the NetSim connection down immediately — the other SIP,
    // possibly *blocked in poll() on that very fd*, saw a spurious
    // hangup (or a dangling wakeup registration). The connection must
    // only close when the last descriptor goes, and the close edge
    // must fire exactly once.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto child = toolchain::compile(R"(
global byte msg[4] = "hi";
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; } // let the parent park in poll()
    if (sock_send(0, msg, 2) != 2) { return 9; }
    i = 0;
    while (i < 200000) { i = i + 1; }
    return 0;  // exit drops the LAST client ref: the real close edge
}
)");
    ASSERT_TRUE(child.ok());
    files.put("sender", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[8] = "sender";
global byte buf[8];
global int pfds[3];
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);
    if (s < 0) { return 3; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = c;                // the child shares the client end
    io3[1] = 0 - 1;
    io3[2] = 0 - 1;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 4; }
    close(c);                  // seed bug: this killed the connection
    pfds[0] = s;
    pfds[1] = 0x1;
    pfds[2] = 0;
    // Blocked here when the child's payload lands. With the seed bug
    // this returned instantly with HUP and an EOF read.
    if (poll(pfds, 1, 0 - 1) != 1) { return 5; }
    if ((pfds[2] & 0x1) == 0) { return 6; }
    if ((pfds[2] & 0x10) != 0) { return 7; }  // no phantom hangup
    if (sock_recv(s, buf, 8) != 2) { return 8; }
    // The child's exit drops the last client descriptor: one hangup.
    if (poll(pfds, 1, 0 - 1) != 1) { return 10; }
    if ((pfds[2] & 0x10) == 0) { return 11; }
    if (sock_recv(s, buf, 8) != 0) { return 12; } // EOF after HUP
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto &wasted =
        trace::Registry::instance().counter("kernel.wasted_retries");
    uint64_t wasted0 = wasted.value();
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    // Exactly-once close delivery: no wakeup ever found nothing to do.
    // (Injected network faults legitimately perturb wakeup timing, so
    // the counter check only holds on a clean run.)
    if (!faultsim::FaultSim::instance().active()) {
        EXPECT_EQ(wasted.value(), wasted0);
    }
}

TEST(Regression, PollEventsArrayAcrossPageHoleIsAllOrNothing)
{
    // A pollfd array whose tail record straddles an unmapped page:
    // the whole call must fail with EFAULT *before* any revents are
    // written back — a partial writeback would leave the caller
    // acting on half-reported readiness it was told failed.
    HoleyHarness h;
    h.proc.pid = 1;

    // A pipe with one readable byte (fds 0 and 1 in the empty table).
    uint64_t pipe_args[abi::kSyscallArgs] = {0x1000};
    auto r = h.kernel.sys(h.proc, abi::Sys::kPipe, pipe_args);
    ASSERT_TRUE(r && *r == 0);
    ASSERT_EQ(h.space.write_raw(0x1100, "x", 1), vm::AccessFault::kNone);
    uint64_t write_args[abi::kSyscallArgs] = {1, 0x1100, 1};
    r = h.kernel.sys(h.proc, abi::Sys::kWrite, write_args);
    ASSERT_TRUE(r && *r == 1);

    // Record 0 sits in the last 24 bytes of the mapped page; record 1
    // begins exactly at the hole. revents carries a sentinel.
    uint64_t base = 0x2000 - abi::kPollRecordBytes;
    int64_t rec0[3] = {0, 0x1, 0x7};
    ASSERT_EQ(h.space.write_raw(base, rec0, sizeof(rec0)),
              vm::AccessFault::kNone);

    uint64_t poll_args[abi::kSyscallArgs] = {base, 2, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kPoll, poll_args);
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, -static_cast<int64_t>(ErrorCode::kFault));

    // All-or-nothing: the mapped record's revents is untouched even
    // though its fd was genuinely ready.
    int64_t check[3] = {0, 0, 0};
    ASSERT_EQ(h.space.read_raw(base, check, sizeof(check)),
              vm::AccessFault::kNone);
    EXPECT_EQ(check[2], 0x7);

    // The same single record, fully mapped, reports POLLIN.
    uint64_t good_args[abi::kSyscallArgs] = {base, 1, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kPoll, good_args);
    ASSERT_TRUE(r && *r == 1);
    ASSERT_EQ(h.space.read_raw(base, check, sizeof(check)),
              vm::AccessFault::kNone);
    EXPECT_EQ(check[2], 0x1);
}

TEST(Regression, EpollWaitAcrossPageHoleKeepsEdgeState)
{
    // epoll_wait's collect is destructive for edge-triggered entries
    // (a reported fd leaves the ready list), so the output buffer
    // must be probed *before* collecting: an EFAULT buffer must not
    // consume the edge.
    HoleyHarness h;
    h.proc.pid = 1;

    uint64_t pipe_args[abi::kSyscallArgs] = {0x1000};
    auto r = h.kernel.sys(h.proc, abi::Sys::kPipe, pipe_args);
    ASSERT_TRUE(r && *r == 0);
    uint64_t create_args[abi::kSyscallArgs] = {};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCreate, create_args);
    ASSERT_TRUE(r && *r >= 0);
    uint64_t epfd = static_cast<uint64_t>(*r);
    uint64_t ctl_args[abi::kSyscallArgs] = {
        epfd, abi::kEpollCtlAdd, 0,
        static_cast<uint64_t>(abi::kPollIn) |
            static_cast<uint64_t>(abi::kEpollEt)};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCtl, ctl_args);
    ASSERT_TRUE(r && *r == 0);

    // One readable byte arms the edge.
    ASSERT_EQ(h.space.write_raw(0x1100, "x", 1), vm::AccessFault::kNone);
    uint64_t write_args[abi::kSyscallArgs] = {1, 0x1100, 1};
    r = h.kernel.sys(h.proc, abi::Sys::kWrite, write_args);
    ASSERT_TRUE(r && *r == 1);

    // Two 16-byte event records starting 16 bytes before the hole:
    // the second straddles unmapped memory.
    uint64_t base = 0x2000 - abi::kEpollRecordBytes;
    uint64_t bad_args[abi::kSyscallArgs] = {epfd, base, 2, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, bad_args);
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, -static_cast<int64_t>(ErrorCode::kFault));

    // The edge survived the failed call: a fully-mapped buffer still
    // reports it (before the fix the EFAULT call dequeued the entry
    // and this returned 0 — a lost event).
    uint64_t good_args[abi::kSyscallArgs] = {epfd, 0x1200, 4, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, good_args);
    ASSERT_TRUE(r && *r == 1);
    int64_t ev[2] = {0, 0};
    ASSERT_EQ(h.space.read_raw(0x1200, ev, sizeof(ev)),
              vm::AccessFault::kNone);
    EXPECT_EQ(ev[0], 0);
    EXPECT_EQ(ev[1] & abi::kPollIn, abi::kPollIn);

    // And the edge is now consumed: nothing further to report.
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, good_args);
    ASSERT_TRUE(r && *r == 0);
}

// ---- fd lifecycle under dup2 (PR 9 bugfix sweep) ----------------------

TEST(Regression, Dup2ImplicitCloseDropsEpollInterest)
{
    // dup2 over a watched descriptor is an implicit close: the old
    // registration must leave the interest list, exactly as kClose's
    // auto-removal would. Before the fix the stale entry (a) kept
    // reporting events for the *old* file and (b) made re-ADDing the
    // descriptor fail with a phantom EEXIST.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[4];
func main() {
    var fds[2];
    var fds2[2];
    var evs[8];
    if (pipe(fds) != 0) { return 1; }     // 3, 4
    if (pipe(fds2) != 0) { return 2; }    // 5, 6
    var ep = epoll_create();              // 7
    if (ep != 7) { return 3; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 4; }
    // Keep the first pipe's read end alive elsewhere so writing to
    // it stays legal after fd 3 is clobbered.
    if (dup2(fds[0], 8) != 8) { return 9; }
    // Replace the watched descriptor with the other pipe's read end.
    if (dup2(fds2[0], fds[0]) != fds[0]) { return 5; }
    // Data on the *old* pipe object must no longer reach the epoll.
    if (write(fds[1], b, 1) != 1) { return 6; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 7; }
    // And the slot must be re-addable (no phantom EEXIST).
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 8; }
    return 0;
}
)"),
              0);
}

TEST(Regression, Dup2OverLastEpollFdDropsRosterEntry)
{
    // dup2 over the *only* descriptor of an epoll object destroys the
    // object; the process's epoll roster must drop it too. Before the
    // fix the roster kept a dangling pointer and the next close()
    // walked it — a use-after-free the ASan tier-1 leg catches.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }     // 3, 4
    var ep = epoll_create();              // 5
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 2; }
    if (dup2(fds[0], ep) != ep) { return 3; }
    // Any close now walks the epoll roster.
    if (close(fds[0]) != 0) { return 4; }
    if (close(ep) != 0) { return 5; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, LowestFreeFdSurvivesChurn)
{
    // POSIX lowest-free allocation across every lifecycle path that
    // can open a hole: close-in-the-middle, close-at-the-bottom,
    // dup2 (which must NOT open a hole — the slot is reoccupied
    // atomically), and pipe's double allocation.
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
func main() {
    var a = open(p, 0);
    var b2 = open(p, 0);
    var c = open(p, 0);
    var d = open(p, 0);
    if (a != 3) { return 1; }
    if (d != 6) { return 2; }
    close(c);                            // hole at 5
    close(a);                            // hole at 3: hint rewinds
    if (open(p, 0) != 3) { return 3; }   // lowest hole first
    if (open(p, 0) != 5) { return 4; }   // then the next one up
    if (dup2(b2, 9) != 9) { return 5; }  // no hole: 9 becomes busy
    close(b2);                           // hole at 4
    if (open(p, 0) != 4) { return 6; }
    var fds[2];
    if (pipe(fds) != 0) { return 7; }
    if (fds[0] != 7) { return 8; }       // dense run continues
    if (fds[1] != 8) { return 9; }
    close(9);
    if (open(p, 0) != 9) { return 10; }
    return 0;
}
)"),
              0);
}

TEST(Regression, Dup2OutOfRangeTargetIsEbadfAndInstallsNothing)
{
    // dup2 used to truncate newfd to int and install it unchecked:
    // dup2(w, -1) parked a second reference to the pipe writer at
    // descriptor -1, so closing the real writer never gave the reader
    // EOF. Out-of-range targets are EBADF now and install nothing.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global int pfds[3];
global byte b[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }                  // 3, 4
    if (dup2(fds[1], 0 - 1) != -9) { return 2; }
    if (dup2(fds[1], 1048576) != -9) { return 3; }     // kMaxFds
    if (dup2(fds[1], 1048575) != 1048575) { return 4; }
    if (close(1048575) != 0) { return 5; }
    if (close(fds[1]) != 0) { return 6; }
    // No descriptor holds the writer any more: hangup, then EOF.
    pfds[0] = fds[0];
    pfds[1] = 0x1;
    if (poll(pfds, 1, 0) != 1) { return 7; }
    if (pfds[2] != 0x10) { return 8; }                 // POLLHUP
    if (read(fds[0], b, 8) != 0) { return 9; }
    if (epoll_create() != 4) { return 10; }            // lowest free
    return 0;
}
)"),
              0);
}

TEST(Syscalls, AllocFdReturnsMinusOneAtTheCap)
{
    // kMaxFds descriptors are the hard cap: with every one taken the
    // allocator reports -1 (the syscalls turn it into EMFILE), and a
    // close anywhere below the cap makes that slot the next fd.
    Process proc;
    auto console = std::make_shared<Console>(nullptr);
    proc.fds.assign(kMaxFds, console);
    EXPECT_EQ(proc.alloc_fd(), -1);
    EXPECT_EQ(proc.file_at(kMaxFds), nullptr);
    EXPECT_EQ(proc.file_at(-1), nullptr);
    proc.fds[4096].reset();
    proc.fd_closed(4096);
    EXPECT_EQ(proc.alloc_fd(), 4096);
}

/**
 * The fd syscalls against a host-side model: a std::map from fd to
 * an open-file id, plus each epoll object's watched fds. Pipes, files
 * and the console are plain objects; an epoll object's interest list
 * empties when its last descriptor goes, and closing (or dup2-ing
 * over) a non-epoll fd removes that fd from every live epoll.
 * Nested epolls are left out: their ELOOP and lifetime rules are the
 * subject of the Epoll battery.
 */
struct FdModel {
    struct Object {
        bool epoll = false;
        int refs = 0;
        std::set<int> interest;
    };
    std::map<int, int> fds;         // fd -> object id
    std::map<int, Object> objects;  // object id -> object
    int next_object = 0;

    FdModel()
    {
        int console = make(false);
        for (int fd = 0; fd < 3; ++fd) {
            install(fd, console);
        }
    }

    int
    make(bool epoll)
    {
        objects[next_object].epoll = epoll;
        return next_object++;
    }

    void
    install(int fd, int object)
    {
        fds[fd] = object;
        ++objects[object].refs;
    }

    int
    lowest_free() const
    {
        int fd = 0;
        while (fds.count(fd)) {
            ++fd;
        }
        return fd;
    }

    /** Drop descriptor fd (close, or dup2's implicit close). */
    void
    drop(int fd)
    {
        Object &obj = objects[fds.at(fd)];
        fds.erase(fd);
        if (--obj.refs == 0) {
            obj.interest.clear();
        }
        if (!obj.epoll) {
            for (auto &[id, other] : objects) {
                if (other.epoll && other.refs > 0) {
                    other.interest.erase(fd);
                }
            }
        }
    }

    const Object *
    at(int fd) const
    {
        auto it = fds.find(fd);
        return it == fds.end() ? nullptr : &objects.at(it->second);
    }
};

/** A seeded random program of fd syscalls, each checked against the
 *  model; returns the MiniC source, with `ops` naming each check. */
std::string
fd_model_program(uint64_t seed, int count, std::vector<std::string> &ops)
{
    Rng rng(seed);
    FdModel m;
    const int pool[] = {-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                        kMaxFds - 1};
    // Mostly an open descriptor (of the wanted kind when `epoll_only`),
    // sometimes any of the pool, closed and out-of-range ones included.
    auto pick = [&](bool epoll_only = false) {
        std::vector<int> open;
        for (const auto &[fd, id] : m.fds) {
            if (!epoll_only || m.objects.at(id).epoll) {
                open.push_back(fd);
            }
        }
        if (open.empty() || rng.next_below(4) == 0) {
            return pool[rng.next_below(sizeof(pool) / sizeof(pool[0]))];
        }
        return open[rng.next_below(open.size())];
    };
    std::string body;
    auto check = [&](const std::string &call, int64_t want) {
        ops.push_back(call + " == " + std::to_string(want));
        body += "    if (" + call + " != " + std::to_string(want) +
                ") { return " + std::to_string(ops.size()) + "; }\n";
    };
    auto arg = [](int fd) {
        return fd < 0 ? "(0 - " + std::to_string(-fd) + ")"
                      : std::to_string(fd);
    };
    for (int i = 0; i < count; ++i) {
        switch (rng.next_below(8)) {
          case 0: { // open
            int fd = m.lowest_free();
            check("open(path, 0)", fd);
            m.install(fd, m.make(false));
            break;
          }
          case 1: { // pipe
            int rfd = m.lowest_free();
            m.install(rfd, m.make(false));
            int wfd = m.lowest_free();
            m.install(wfd, m.make(false));
            check("pipe(fds)", 0);
            check("fds[0]", rfd);
            check("fds[1]", wfd);
            break;
          }
          case 2: { // close
            int fd = pick();
            check("close(" + arg(fd) + ")", m.at(fd) ? 0 : -9);
            if (m.at(fd)) {
                m.drop(fd);
            }
            break;
          }
          case 3: { // dup2, including targets outside [0, kMaxFds)
            int oldfd = pick();
            int newfd = rng.next_below(8) == 0
                            ? (rng.next_below(2) ? kMaxFds : -2)
                            : pick();
            std::string call =
                "dup2(" + arg(oldfd) + ", " + arg(newfd) + ")";
            if (!m.at(oldfd) || newfd < 0 || newfd >= kMaxFds) {
                check(call, -9);
            } else if (oldfd == newfd) {
                check(call, newfd);
            } else {
                check(call, newfd);
                int object = m.fds.at(oldfd);
                if (m.at(newfd)) {
                    m.drop(newfd);
                }
                m.install(newfd, object);
            }
            break;
          }
          case 4: { // epoll_create
            int fd = m.lowest_free();
            check("epoll_create()", fd);
            m.install(fd, m.make(true));
            break;
          }
          default: { // epoll_ctl (three cases in eight)
            int ep = pick(/*epoll_only=*/true);
            int fd = pick();
            const uint64_t op_pool[] = {1, 1, 2, 3, 7};
            uint64_t op = op_pool[rng.next_below(5)];
            const FdModel::Object *target = m.at(fd);
            const FdModel::Object *epobj = m.at(ep);
            if (op == 1 && target && target->epoll && target != epobj) {
                break; // a nested epoll: outside the model
            }
            std::string call = "epoll_ctl(" + arg(ep) + ", " +
                               std::to_string(op) + ", " + arg(fd) +
                               ", 1)";
            int64_t want = 0;
            if (!epobj) {
                want = -9;
            } else if (!epobj->epoll) {
                want = -22;
            } else if (!target) {
                want = -9;
            } else if (op == 7) {
                want = -22;
            } else {
                std::set<int> &interest =
                    m.objects[m.fds.at(ep)].interest;
                bool watched = interest.count(fd) != 0;
                if (op == 1) {
                    want = watched ? -17 : target == epobj ? -40 : 0;
                    if (want == 0) {
                        interest.insert(fd);
                    }
                } else {
                    want = watched ? 0 : -2;
                    if (watched && op == 2) {
                        interest.erase(fd);
                    }
                }
            }
            check(call, want);
            break;
          }
        }
    }
    // Final sweep: every descriptor's liveness (dup2(fd, fd) returns
    // fd iff it is open) and every live epoll's exact interest list
    // (MOD succeeds iff watched).
    for (int fd : pool) {
        check("dup2(" + arg(fd) + ", " + arg(fd) + ")",
              m.at(fd) ? fd : -9);
    }
    for (const auto &[ep, id] : m.fds) {
        if (!m.objects.at(id).epoll) {
            continue;
        }
        for (int fd : pool) {
            if (fd < 0 || !m.at(fd) || m.at(fd)->epoll) {
                continue;
            }
            check("epoll_ctl(" + arg(ep) + ", 3, " + arg(fd) + ", 1)",
                  m.objects.at(id).interest.count(fd) ? 0 : -2);
        }
    }
    return "global byte path[4] = \"/f\";\nfunc main() {\n"
           "    var fds[2];\n" +
           body + "    return 0;\n}\n";
}

TEST(Syscalls, FdSyscallsMatchAMapModel)
{
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        std::vector<std::string> ops;
        std::string source = fd_model_program(seed, 90, ops);
        KernelHarness h;
        h.files.put("/f", Bytes{});
        int64_t code = h.run(source);
        ASSERT_EQ(code, 0)
            << "seed " << seed << ": check "
            << (code > 0 && code <= static_cast<int64_t>(ops.size())
                    ? ops[static_cast<size_t>(code - 1)]
                    : std::string("?"))
            << "\n"
            << source;
    }
}

// ---- timer-heap compaction (PR 9 bugfix sweep) ------------------------

TEST(Timers, PollRearmCancelLoopKeepsHeapBounded)
{
    // A poll() with a far deadline that is woken early by data leaves
    // its (when, pid) entry dead in the heap: it is far in the
    // future, so lazy top-pruning never reaches it. Re-armed in a
    // loop, the heap grew by one entry per iteration (~1500 here)
    // until compaction was added; now stale entries are swept once
    // they are numerous and the majority.
    KernelHarness h;
    auto child = toolchain::compile(R"(
global byte b[4];
func main() {
    var i = 0;
    while (i < 1500) {
        if (read(0, b, 1) != 1) { return 1; }
        if (write(1, b, 1) != 1) { return 2; }
        i = i + 1;
    }
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("echo", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[8] = "echo";
global byte b[4];
func main() {
    var req[2];
    var resp[2];
    if (pipe(req) != 0) { return 1; }    // 3, 4
    if (pipe(resp) != 0) { return 2; }   // 5, 6
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = req[0];    // child stdin: request pipe read end
    io3[1] = resp[1];   // child stdout: response pipe write end
    io3[2] = 2;
    var cpid = spawn_io(child, argvv, 1, io3);
    if (cpid < 0) { return 3; }
    close(req[0]);
    close(resp[1]);
    var pfd[3];
    var t = 1000000000;
    t = t * 1000;       // 1000 s: the deadline never comes due
    var i = 0;
    while (i < 1500) {
        if (write(req[1], b, 1) != 1) { return 4; }
        pfd[0] = resp[0];
        pfd[1] = 0x1;
        pfd[2] = 0;
        if (poll(pfd, 1, t) != 1) { return 5; }
        if (read(resp[0], b, 1) != 1) { return 6; }
        i = i + 1;
    }
    close(req[1]);
    return waitpid(cpid);
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto code = h.sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    // Seed behaviour: ~1500 dead entries left behind. With
    // compaction the heap stays within a small constant of the live
    // count (threshold 64, majority rule).
    EXPECT_LT(h.sys.timer_entries(), 512u);
}

// ---- SMP scheduling (PR 9 tentpole) -----------------------------------

namespace smp {

/** Counter snapshot helper (the registry is process-global). */
uint64_t
ctr(const std::string &name)
{
    return trace::Registry::instance().counter(name).value();
}

constexpr const char *kStormParent = R"(
global byte child[8] = "kid";
func main() {
    var argvv[1];
    var pids[24];
    argvv[0] = child;
    var i = 0;
    while (i < 24) {
        pids[i] = spawn(child, argvv, 1);
        if (pids[i] < 0) { return 1; }
        i = i + 1;
    }
    i = 0;
    while (i < 24) {
        if (waitpid(pids[i]) != 7) { return 2; }
        i = i + 1;
    }
    return 0;
}
)";

constexpr const char *kStormChild = R"(
func main() {
    var i = 0;
    while (i < 3000) { i = i + 1; }
    return 7;
}
)";

/** Spawn the storm parent (pid 1) and its 24 children. */
void
spawn_storm(KernelHarness &h)
{
    auto kid = toolchain::compile(kStormChild);
    auto parent = toolchain::compile(kStormParent);
    ASSERT_TRUE(kid.ok() && parent.ok());
    h.files.put("kid", kid.value().image.serialize());
    h.files.put("prog", parent.value().image.serialize());
    ASSERT_TRUE(h.sys.spawn("prog", {"prog"}).ok());
}

/** Run the spawn storm at `cores`; returns (death order, cycles). */
std::pair<std::vector<int>, uint64_t>
run_storm(int cores)
{
    KernelHarness h;
    h.sys.set_cores(cores);
    spawn_storm(h);
    h.sys.run();
    EXPECT_EQ(h.sys.exit_code(1).value(), 0);
    EXPECT_TRUE(h.sys.all_exited());
    return {h.sys.death_order(), h.clock.cycles()};
}

} // namespace smp

TEST(Smp, SpawnStormCompletesDeterministicallyAcrossCores)
{
    // 24 children spawned back-to-back (a spawn storm: many pids
    // enter the walk mid-round) must all run, complete, and be
    // reaped at every core count — and the completion order must be
    // a pure function of the core count: two identical runs agree
    // exactly, including total simulated cycles.
    for (int cores : {1, 2, 4}) {
        auto first = smp::run_storm(cores);
        auto second = smp::run_storm(cores);
        EXPECT_EQ(first.first, second.first) << "cores=" << cores;
        EXPECT_EQ(first.second, second.second) << "cores=" << cores;
        EXPECT_EQ(first.first.size(), 25u) << "cores=" << cores;
    }
    // More cores must not be slower on a 24-wide parallel workload.
    EXPECT_LT(smp::run_storm(4).second, smp::run_storm(1).second);
}

TEST(Smp, IdleCoresStealFromLoadedCoreAndFinishSooner)
{
    // Two long jobs whose pids collide on one home core (2 and 6,
    // both pid % 4 == 2) with three instant-exit spacers between
    // them. Once the spacers die, core 2 owns both long jobs: an
    // idle core must steal the lowest pid from it (the most-loaded
    // queue) and the pair must finish in roughly half the unicore
    // time.
    auto run_once = [](int cores, uint64_t &cycles) {
        KernelHarness h;
        h.sys.set_cores(cores);
        auto lng = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 300000) { i = i + 1; }
    return 5;
}
)");
        auto quick = toolchain::compile("func main() { return 6; }");
        ASSERT_TRUE(lng.ok());
        ASSERT_TRUE(quick.ok());
        h.files.put("long", lng.value().image.serialize());
        h.files.put("quick", quick.value().image.serialize());
        EXPECT_EQ(h.run(R"(
global byte lng[8] = "long";
global byte qck[8] = "quick";
func main() {
    var argvv[1];
    argvv[0] = lng;
    var a = spawn(lng, argvv, 1);     // pid 2 (home 2 at 4 cores)
    argvv[0] = qck;
    var s1 = spawn(qck, argvv, 1);    // pid 3
    var s2 = spawn(qck, argvv, 1);    // pid 4
    var s3 = spawn(qck, argvv, 1);    // pid 5
    argvv[0] = lng;
    var b2 = spawn(lng, argvv, 1);    // pid 6 (home 2 at 4 cores)
    if (waitpid(a) != 5) { return 1; }
    if (waitpid(b2) != 5) { return 2; }
    if (waitpid(s1) != 6) { return 3; }
    if (waitpid(s2) != 6) { return 4; }
    if (waitpid(s3) != 6) { return 5; }
    return 0;
}
)"),
                  0);
        cycles = h.clock.cycles();
    };
    uint64_t steals_before = smp::ctr("kernel.core0.steals");
    uint64_t uni_cycles = 0;
    uint64_t smp_cycles = 0;
    run_once(1, uni_cycles);
    run_once(4, smp_cycles);
    // The idle core 0 stole pid 2 from core 2's two-deep queue.
    EXPECT_GT(smp::ctr("kernel.core0.steals"), steals_before);
    // Both long jobs overlap in simulated time: real speedup.
    EXPECT_LT(smp_cycles, uni_cycles * 3 / 4);
}

TEST(Smp, CrossCoreWakeupLandsOnHomeCoreQueue)
{
    // A SIP homed on core 0 (pid 2 at 2 cores) blocks reading a
    // pipe; the writer is homed on core 1 (pid 1). The wake must
    // land on the *reader's* home queue — counted by the per-core
    // wakeup metric — and the reader must complete.
    uint64_t wakeups_before = smp::ctr("kernel.core0.wakeups");
    KernelHarness h;
    h.sys.set_cores(2);
    auto child = toolchain::compile(R"(
global byte b[4];
func main() {
    if (read(0, b, 1) != 1) { return 1; }
    return 9;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("rdr", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "rdr";
global byte b[4];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];
    io3[1] = 1;
    io3[2] = 2;
    var cpid = spawn_io(child, argvv, 1, io3);
    if (cpid < 0) { return 2; }
    close(fds[0]);
    // Let the reader park first (it blocks on the empty pipe), then
    // wake it from the other core.
    var i = 0;
    while (i < 60000) { i = i + 1; }
    if (write(fds[1], b, 1) != 1) { return 3; }
    if (waitpid(cpid) != 9) { return 4; }
    return 0;
}
)"),
              0);
    EXPECT_GT(smp::ctr("kernel.core0.wakeups"), wakeups_before);
}

namespace smp {

/**
 * The stolen-then-woken double-run shape, at `cores`. Returns
 * (death order, cycles); the caller diffs kernel.deferred_retries.
 *
 * The choreography (4 cores): pid 3 ("rdr", home core 3) spins long
 * enough for the spacer pids 2/4/5/6 to die, leaving core 0's walk
 * empty while queue 3 stays two-deep (pid 7 keeps spinning) — so core
 * 0 steals pid 3 every round. When its spin drains, pid 3 writes one
 * byte to the signal pipe (stdout); the orchestrator pid 1 (home core
 * 1) parked on that pipe is retried by core 1's walk in the same
 * round. Next round pid 3, stolen again, blocks reading the empty data
 * pipe (stdin), stamping ran_round; core 1's walk then runs pid 1's
 * quantum, which writes the data pipe and wakes pid 3. Core 3's walk
 * then sees a wake-pending SIP whose ran_round equals the current
 * round: retrying would make it run twice in one round, so the retry
 * must be deferred.
 */
std::pair<std::vector<int>, uint64_t>
run_stolen_then_woken(int cores)
{
    KernelHarness h;
    h.sys.set_cores(cores);
    auto spacer = toolchain::compile("func main() { return 5; }");
    auto reader = toolchain::compile(R"(
global byte b[4];
func main() {
    var i = 0;
    while (i < 120000) { i = i + 1; }
    if (write(1, b, 1) != 1) { return 1; }
    if (read(0, b, 1) != 1) { return 2; }
    return 9;
}
)");
    auto spinner = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 400000) { i = i + 1; }
    return 7;
}
)");
    EXPECT_TRUE(spacer.ok() && reader.ok() && spinner.ok());
    h.files.put("spc", spacer.value().image.serialize());
    h.files.put("rdr", reader.value().image.serialize());
    h.files.put("spin", spinner.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte spacer[8] = "spc";
global byte reader[8] = "rdr";
global byte spinner[8] = "spin";
global byte b[4];
func main() {
    var sig[2];
    var dat[2];
    if (pipe(sig) != 0) { return 1; }
    if (pipe(dat) != 0) { return 1; }
    var argvv[1];
    argvv[0] = spacer;
    var p2 = spawn(spacer, argvv, 1);
    var io3[3];
    io3[0] = dat[0];
    io3[1] = sig[1];
    io3[2] = 2;
    argvv[0] = reader;
    var p3 = spawn_io(reader, argvv, 1, io3);
    argvv[0] = spacer;
    var p4 = spawn(spacer, argvv, 1);
    var p5 = spawn(spacer, argvv, 1);
    var p6 = spawn(spacer, argvv, 1);
    argvv[0] = spinner;
    var p7 = spawn(spinner, argvv, 1);
    if (p2 < 0) { return 2; }
    if (p3 < 0) { return 2; }
    if (p4 < 0) { return 2; }
    if (p5 < 0) { return 2; }
    if (p6 < 0) { return 2; }
    if (p7 < 0) { return 2; }
    close(dat[0]);
    close(sig[1]);
    if (read(sig[0], b, 1) != 1) { return 3; }
    if (write(dat[1], b, 1) != 1) { return 4; }
    if (waitpid(p3) != 9) { return 5; }
    if (waitpid(p2) != 5) { return 6; }
    if (waitpid(p4) != 5) { return 6; }
    if (waitpid(p5) != 5) { return 6; }
    if (waitpid(p6) != 5) { return 6; }
    if (waitpid(p7) != 7) { return 7; }
    return 0;
}
)"),
              0);
    EXPECT_TRUE(h.sys.all_exited());
    return {h.sys.death_order(), h.clock.cycles()};
}

} // namespace smp

TEST(Smp, StolenThenWokenSipRunsOnceAndRetryIsDeferred)
{
    // Regression for the stolen-then-woken double-run hazard: a home
    // core's walk must not retry a SIP's blocked syscall when the SIP
    // already ran a stolen quantum this round — that would complete
    // the syscall on a timeline that rewound to the round start, i.e.
    // overlapping the SIP's own quantum in simulated time. The walk
    // must defer such retries to the next round (counted by
    // kernel.deferred_retries, which this scenario is engineered to
    // hit), and the schedule must stay deterministic run to run at
    // every swept core count.
    uint64_t deferred0 = smp::ctr("kernel.deferred_retries");
    for (int cores : {2, 4}) {
        auto first = smp::run_stolen_then_woken(cores);
        auto second = smp::run_stolen_then_woken(cores);
        EXPECT_EQ(first.first, second.first)
            << "death order must be deterministic at cores=" << cores;
        EXPECT_EQ(first.second, second.second)
            << "cycles must be deterministic at cores=" << cores;
    }
    // The 4-core choreography reaches the hazard (steal core 0 <
    // waker core 1 < home core 3); the deferral path must have fired.
    EXPECT_GT(smp::ctr("kernel.deferred_retries"), deferred0);
}


namespace smp {

constexpr const char *kGoldenReader = R"(
global byte b[4];
func main() {
    if (read(0, b, 1) != 1) { return 1; }
    if (write(1, b, 1) != 1) { return 2; }
    return 11;
}
)";

constexpr const char *kGoldenEpoller = R"(
global byte b[4];
func main() {
    var evs[4];
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, 0, 1) != 0) { return 1; }
    if (epoll_wait(ep, evs, 2, -1) != 1) { return 2; }
    if (read(0, b, 1) != 1) { return 3; }
    return 12;
}
)";

// Sleeps 48 us (a poll with no fds is a pure timer), then spins.
constexpr const char *kGoldenSleeper = R"(
func main() {
    var fds[3];
    if (poll(fds, 0, 48000) != 0) { return 1; }
    var i = 0;
    while (i < 20000) { i = i + 1; }
    return 13;
}
)";

// Spins into a later quantum, then spawns mid-round.
constexpr const char *kGoldenSpawner = R"(
global byte kid[8] = "kid";
func main() {
    var i = 0;
    while (i < 30000) { i = i + 1; }
    var argvv[1];
    argvv[0] = kid;
    var c = spawn(kid, argvv, 1);
    if (c < 0) { return 1; }
    if (waitpid(c) != 7) { return 2; }
    return 14;
}
)";

constexpr const char *kGoldenMain = R"(
global byte rd[8] = "rd";
global byte ep[8] = "ep";
global byte sl[8] = "sl";
global byte sp[8] = "sp";
global byte b[4];
func main() {
    var a[2];
    var back[2];
    var c[2];
    if (pipe(a) != 0) { return 1; }
    if (pipe(back) != 0) { return 1; }
    if (pipe(c) != 0) { return 1; }
    var argvv[1];
    var io3[3];
    io3[0] = a[0];
    io3[1] = back[1];
    io3[2] = 2;
    argvv[0] = rd;
    var p2 = spawn_io(rd, argvv, 1, io3);
    io3[0] = c[0];
    io3[1] = 1;
    argvv[0] = ep;
    var p3 = spawn_io(ep, argvv, 1, io3);
    argvv[0] = sl;
    var p4 = spawn(sl, argvv, 1);
    argvv[0] = sp;
    var p5 = spawn(sp, argvv, 1);
    if (p5 < 0) { return 2; }
    close(a[0]);
    close(back[1]);
    close(c[0]);
    var i = 0;
    while (i < 25000) { i = i + 1; }
    if (write(a[1], b, 1) != 1) { return 3; }
    i = 0;
    while (i < 5000) { i = i + 1; }
    if (write(c[1], b, 1) != 1) { return 4; }
    if (read(back[0], b, 1) != 1) { return 5; }
    if (waitpid(p2) != 11) { return 6; }
    if (waitpid(p3) != 12) { return 7; }
    if (waitpid(p4) != 13) { return 8; }
    if (waitpid(p5) != 14) { return 9; }
    return 0;
}
)";

/** Load the golden scenario's binaries and spawn its main (pid 1). */
void
spawn_golden(KernelHarness &h)
{
    std::pair<const char *, const char *> progs[] = {
        {"rd", kGoldenReader},  {"ep", kGoldenEpoller},
        {"sl", kGoldenSleeper}, {"sp", kGoldenSpawner},
        {"kid", kStormChild},   {"prog", kGoldenMain},
    };
    for (auto &[name, src] : progs) {
        auto out = toolchain::compile(src);
        EXPECT_TRUE(out.ok()) << name;
        h.files.put(name, out.value().image.serialize());
    }
    ASSERT_TRUE(h.sys.spawn("prog", {"prog"}).ok());
}

} // namespace smp

TEST(Scheduler, UnicoreGoldenScheduleIsPinned)
{
    // One core must keep the exact single-queue walk: pipe wakeups
    // (2 reads, woken by 1), an epoll wait (3, woken by 1), a sleep
    // timer that comes due while lower pids run (4), and a spawn in
    // the middle of a round (5 spawns 6). Death order, final cycles
    // and the walk's counters are pinned.
    uint64_t visits0 = smp::ctr("kernel.sched_visits");
    uint64_t wasted0 = smp::ctr("kernel.wasted_retries");
    uint64_t wakeups0 = smp::ctr("kernel.wakeups");
    KernelHarness h;
    smp::spawn_golden(h);
    h.sys.run();
    auto code = h.sys.exit_code(1);
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    EXPECT_EQ(h.sys.death_order(), (std::vector<int>{4, 6, 2, 5, 3, 1}));
    EXPECT_EQ(h.clock.cycles(), 5002408ull);
    EXPECT_EQ(smp::ctr("kernel.sched_visits") - visits0, 63u);
    EXPECT_EQ(smp::ctr("kernel.wasted_retries") - wasted0, 0u);
    EXPECT_EQ(smp::ctr("kernel.wakeups") - wakeups0, 4u);
}


namespace smp {

/**
 * Two readers homed on one core (pids 2 and 6 at 4 cores), woken by
 * one 2-byte write: their home core's walk retries both, and both
 * turn runnable mid-round while cores 0 and 3 have nothing of their
 * own to run. Neither may be stolen before the next round.
 */
void
spawn_pair_wake(KernelHarness &h)
{
    auto rd = toolchain::compile(kGoldenReader);
    auto spacer = toolchain::compile("func main() { return 5; }");
    auto parent = toolchain::compile(R"(
global byte rd[8] = "rd";
global byte spc[8] = "spc";
global byte b[4];
func main() {
    var a[2];
    if (pipe(a) != 0) { return 1; }
    var argvv[1];
    var io3[3];
    io3[0] = a[0];
    io3[1] = 1;
    io3[2] = 2;
    argvv[0] = rd;
    var p2 = spawn_io(rd, argvv, 1, io3);
    argvv[0] = spc;
    var p3 = spawn(spc, argvv, 1);
    var p4 = spawn(spc, argvv, 1);
    var p5 = spawn(spc, argvv, 1);
    argvv[0] = rd;
    var p6 = spawn_io(rd, argvv, 1, io3);
    close(a[0]);
    var i = 0;
    while (i < 9000) { i = i + 1; }
    if (write(a[1], b, 2) != 2) { return 2; }
    if (waitpid(p2) != 11) { return 3; }
    if (waitpid(p6) != 11) { return 3; }
    if (waitpid(p3) != 5) { return 4; }
    if (waitpid(p4) != 5) { return 4; }
    if (waitpid(p5) != 5) { return 4; }
    return 0;
}
)");
    ASSERT_TRUE(rd.ok() && spacer.ok() && parent.ok());
    h.files.put("rd", rd.value().image.serialize());
    h.files.put("spc", spacer.value().image.serialize());
    h.files.put("prog", parent.value().image.serialize());
    ASSERT_TRUE(h.sys.spawn("prog", {"prog"}).ok());
}

/**
 * Step `h` round by round to completion. In every round the pids that
 * run a quantum (one cpu.quantum span each) must be exactly the pids
 * that were runnable at round start: each once, none twice, and none
 * spawned or woken during the round. Returns the rounds stepped.
 */
int
check_rounds(KernelHarness &h)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.bind_clock(&h.clock);
    tracer.enable();
    int rounds = 0;
    while (!h.sys.all_exited()) {
        if (rounds == 100000) {
            ADD_FAILURE() << "still running after " << rounds << " rounds";
            break;
        }
        std::vector<int> runnable;
        for (int pid = 1; pid < 64; ++pid) {
            const Process *proc = h.sys.find_process(pid);
            if (proc && proc->state == ProcState::kRunnable) {
                runnable.push_back(pid);
            }
        }
        tracer.clear();
        if (!h.sys.step_round()) {
            uint64_t wake = h.sys.next_wake_time();
            if (wake == ~0ull) {
                ADD_FAILURE() << "deadlock after " << rounds << " rounds";
                break;
            }
            if (wake > h.clock.cycles()) {
                h.clock.advance(wake - h.clock.cycles());
            }
        }
        ++rounds;
        std::vector<int> ran;
        for (const trace::Event &e : tracer.events()) {
            if (e.type == trace::EventType::kBegin &&
                std::string(e.name) == "cpu.quantum") {
                ran.push_back(static_cast<int>(e.arg));
            }
        }
        std::sort(ran.begin(), ran.end());
        EXPECT_EQ(ran, runnable)
            << "round " << rounds << " at cores=" << h.sys.cores();
    }
    tracer.disable();
    tracer.bind_clock(nullptr);
    return rounds;
}

} // namespace smp

TEST(Scheduler, EveryRoundRunsEachRunnablePidExactlyOnce)
{
#ifdef OCCLUM_TRACE_DISABLED
    GTEST_SKIP() << "quanta are counted from trace spans";
#endif
    // One scheduling model at every core count: a round runs one
    // quantum per pid that was runnable at its start, whichever core
    // runs it (its home core or a thief), and nothing else.
    auto total_steals = [](int cores) {
        uint64_t n = 0;
        for (int c = 0; c < cores && cores > 1; ++c) {
            n += smp::ctr("kernel.core" + std::to_string(c) + ".steals");
        }
        return n;
    };
    for (int cores : {1, 2, 4, 8}) {
        uint64_t steals0 = total_steals(cores);
        for (auto spawn : {smp::spawn_golden, smp::spawn_storm,
                           smp::spawn_pair_wake}) {
            KernelHarness h;
            h.sys.set_cores(cores);
            spawn(h);
            EXPECT_GT(smp::check_rounds(h), 0) << "cores=" << cores;
            EXPECT_EQ(h.sys.exit_code(1).value(), 0) << "cores=" << cores;
        }
        if (cores > 1) {
            // The oracle must cover the steal path too.
            EXPECT_GT(total_steals(cores), steals0) << "cores=" << cores;
        }
    }
}

} // namespace
} // namespace occlum::oskit
