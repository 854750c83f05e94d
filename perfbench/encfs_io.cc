/**
 * @file
 * encfs_io: one Occlum SIP writes a file four times larger than the
 * EncFs cache from a seeded pattern and fsyncs it, then reads it back
 * sequentially and at seeded random offsets, with mixed buffer sizes.
 * Every byte read back goes to the console, where the harness checks
 * its SHA-256 against the data written. It loads the libos EncFs, the
 * crypto data plane and the host block device.
 */
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "base/rng.h"
#include "bench/bench_util.h"
#include "crypto/sha256.h"
#include "perfbench/harness.h"

namespace occlum::perfbench {

namespace {

constexpr uint64_t kPatternBytes = 64 << 10;
constexpr size_t kCacheBlocks = 256; // 1 MiB of 4 KiB blocks
/** Four times the cache, and within EncFs's largest file (direct +
 *  one indirect block: 1144 blocks). */
constexpr uint64_t kFileBytes = 4 * kCacheBlocks * 4096;
constexpr int kRandomReads = 4000;
const uint64_t kStreamSizes[] = {512, 2048, 4096, 6000, 16384, 32768};
const uint64_t kRandomSizes[] = {64, 512, 4096, 5000};

/**
 * The SIP. Its plan (/plan.bin, int64 words) is
 *   [file_bytes, n_writes, n_seq, n_rand,
 *    write lens..., seq lens..., (offset, len) pairs...];
 * the file's byte i is pattern[i % 64 KiB] (/seed.bin). It prints
 *   RESULT <written> <write_ns> <read> <read_ns> <errors>
 * after the read-back bytes; write_ns spans the writes plus fsync,
 * read_ns sums the lseek+read calls only.
 */
const char kProgram[] = R"(
global byte pat[131072];
global int plan[16384];
global byte rb[65536];
global byte planpath[16] = "/plan.bin";
global byte seedpath[16] = "/seed.bin";
global byte datapath[16] = "/data.bin";
func slurp(path, buf, cap) {
    var fd = open(path, 0);
    if (fd < 0) { return 0 - 1; }
    var got = 0;
    while (got < cap) {
        var n = read(fd, buf + got, cap - got);
        if (n <= 0) { break; }
        got = got + n;
    }
    close(fd);
    return got;
}
func main() {
    if (slurp(planpath, plan, 131072) < 32) { return 1; }
    if (slurp(seedpath, pat, 65536) != 65536) { return 2; }
    memcpy(pat + 65536, pat, 65536);
    var nw = plan[1];
    var ns = plan[2];
    var nr = plan[3];
    var errs = 0;
    var pos = 0;
    var k = 0;
    var len = 0;
    var n = 0;
    var off = 0;
    var t0 = 0;

    var wfd = open(datapath, 0x242);
    if (wfd < 0) { return 3; }
    t0 = time_ns();
    while (k < nw) {
        len = plan[4 + k];
        if (write(wfd, pat + (pos & 65535), len) != len) { errs = errs + 1; }
        pos = pos + len;
        k = k + 1;
    }
    if (fsync(wfd) < 0) { errs = errs + 1; }
    var wt = time_ns() - t0;
    close(wfd);

    var rfd = open(datapath, 0);
    if (rfd < 0) { return 4; }
    var rt = 0;
    var rbytes = 0;
    k = 0;
    while (k < ns) {
        len = plan[4 + nw + k];
        t0 = time_ns();
        n = read(rfd, rb, len);
        rt = rt + (time_ns() - t0);
        if (n != len) { errs = errs + 1; }
        if (n > 0) { write(1, rb, n); rbytes = rbytes + n; }
        k = k + 1;
    }
    var base = 4 + nw + ns;
    k = 0;
    while (k < nr) {
        off = plan[base + 2 * k];
        len = plan[base + 2 * k + 1];
        t0 = time_ns();
        lseek(rfd, off, 0);
        n = read(rfd, rb, len);
        rt = rt + (time_ns() - t0);
        if (n != len) { errs = errs + 1; }
        if (n > 0) { write(1, rb, n); rbytes = rbytes + n; }
        k = k + 1;
    }
    close(rfd);
    print("RESULT ");
    print_int(pos);
    print(" ");
    print_int(wt);
    print(" ");
    print_int(rbytes);
    print(" ");
    print_int(rt);
    print(" ");
    print_int(errs);
    println("");
    return 0;
}
)";

/** Fisher-Yates shuffle driven by the workload's Rng. */
void
shuffle(std::vector<uint64_t> &values, Rng &rng)
{
    for (size_t i = values.size(); i > 1; --i) {
        std::swap(values[i - 1], values[rng.next_below(i)]);
    }
}

/**
 * One pass over the file in chunks cycling through kStreamSizes from
 * index `first`, then the remainder. The chunking is fixed rather than
 * seeded: a seeded chunk order moves the allocator's peak resident
 * size by up to 15 %, which would swamp peak_rss_mb.
 */
std::vector<uint64_t>
stream_lens(size_t first)
{
    std::vector<uint64_t> lens;
    uint64_t done = 0;
    for (size_t i = first; done + kStreamSizes[i] <= kFileBytes;
         i = (i + 1) % std::size(kStreamSizes)) {
        lens.push_back(kStreamSizes[i]);
        done += kStreamSizes[i];
    }
    if (done < kFileBytes) {
        lens.push_back(kFileBytes - done);
    }
    return lens;
}

Bytes
plan_bytes(const std::vector<uint64_t> &words)
{
    Bytes out;
    for (uint64_t w : words) {
        put_le<uint64_t>(out, w);
    }
    return out;
}

} // namespace

Outcome
encfs_io(uint64_t seed, Meter &meter)
{
    workloads::ProgramBuild build;
    meter.time(Span::kBuild,
               [&] { build = workloads::build_program(kProgram); });

    // Inputs: the seeded pattern, the fixed chunking of the write and
    // sequential-read passes, and the seeded random reads.
    Rng rng(seed ^ 0x656e6366735f696full);
    Bytes pattern(kPatternBytes);
    for (uint8_t &b : pattern) {
        b = static_cast<uint8_t>(rng.next());
    }
    std::vector<uint64_t> writes = stream_lens(0);
    std::vector<uint64_t> seq = stream_lens(3);
    std::vector<uint64_t> words = {kFileBytes, writes.size(), seq.size(),
                                   kRandomReads};
    words.insert(words.end(), writes.begin(), writes.end());
    words.insert(words.end(), seq.begin(), seq.end());
    Bytes data(kFileBytes);
    for (uint64_t i = 0; i < kFileBytes; ++i) {
        data[i] = pattern[i % kPatternBytes];
    }
    // Equal shares of each random-read size, in seeded order.
    std::vector<uint64_t> random_lens;
    for (int i = 0; i < kRandomReads; ++i) {
        random_lens.push_back(kRandomSizes[i % std::size(kRandomSizes)]);
    }
    shuffle(random_lens, rng);
    crypto::Sha256 random_hash;
    uint64_t random_bytes = 0;
    for (uint64_t len : random_lens) {
        uint64_t off = rng.next_below(kFileBytes - len + 1);
        words.push_back(off);
        words.push_back(len);
        random_hash.update(data.data() + off, len);
        random_bytes += len;
    }

    Outcome out;
    sgx::Platform platform;
    host::HostFileStore files;
    std::unique_ptr<libos::OcclumSystem> sys;
    meter.time(Span::kBoot, [&] {
        files.put("fsio", build.occlum);
        auto config = bench::occlum_config(4);
        config.cores = 1;
        config.fs_cache_blocks = kCacheBlocks;
        sys = std::make_unique<libos::OcclumSystem>(platform, files, config);
        out.check(sys->fs().write_file("/seed.bin", pattern).ok() &&
                      sys->fs().write_file("/plan.bin", plan_bytes(words))
                          .ok(),
                  "install /seed.bin and /plan.bin on EncFs");
    });

    meter.start_timed();
    uint64_t t0 = platform.clock().cycles();
    meter.leg_begin(platform.clock());
    auto pid = meter.time(Span::kRun,
                          [&] { return sys->spawn("fsio", {"fsio"}); });
    if (pid.ok()) {
        meter.time(Span::kRun, [&] { sys->run(); });
    }
    meter.leg_end(platform.clock());
    meter.stop_timed();

    // The console holds the sequential read-back, then the random
    // reads, then the RESULT line.
    const std::string &console = sys->console();
    uint64_t read_back = kFileBytes + random_bytes;
    uint64_t written = 0, write_ns = 0, read_bytes = 0, read_ns = 0,
             errors = 0;
    bool parsed = console.size() > read_back &&
                  std::sscanf(console.c_str() + read_back,
                              "RESULT %" SCNu64 " %" SCNu64 " %" SCNu64
                              " %" SCNu64 " %" SCNu64,
                              &written, &write_ns, &read_bytes, &read_ns,
                              &errors) == 5;
    auto code = sys->exit_code(pid.ok() ? pid.value() : -1);
    out.attempted = writes.size() + seq.size() + kRandomReads;
    out.failed = parsed ? errors : out.attempted;
    out.check(pid.ok() && code.ok() && code.value() == 0, "fsio exits 0");
    out.check(parsed && written == kFileBytes && read_bytes == read_back,
              "RESULT line reports every byte written and read");
    if (parsed) {
        auto *bytes = reinterpret_cast<const uint8_t *>(console.data());
        out.check(crypto::Sha256::digest(bytes, kFileBytes) ==
                      crypto::Sha256::digest(data),
                  "SHA-256 of the sequential read-back equals the data "
                  "written");
        out.check(crypto::Sha256::digest(bytes + kFileBytes,
                                         random_bytes) ==
                      random_hash.finish(),
                  "SHA-256 of the random reads equals the written slices");
    }

    out.sim["sim_ms"] =
        SimClock::cycles_to_millis(platform.clock().cycles() - t0);
    out.sim["write_mbps"] =
        write_ns ? static_cast<double>(written) * 1e3 / write_ns : 0.0;
    out.sim["read_mbps"] =
        read_ns ? static_cast<double>(read_bytes) * 1e3 / read_ns : 0.0;
    return out;
}

} // namespace occlum::perfbench
