#include "workloads/workloads.h"

#include "base/log.h"
#include "verifier/verifier.h"

namespace occlum::workloads {

crypto::Key128
bench_verifier_key()
{
    crypto::Key128 key{};
    for (size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<uint8_t>(0xB0 + i);
    }
    return key;
}

ProgramBuild
build_program(const std::string &source, uint64_t pad_to,
              uint64_t heap_size, uint64_t code_reserve)
{
    ProgramBuild build;

    toolchain::CompileOptions occ;
    occ.instrument = toolchain::InstrumentOptions::full();
    occ.pad_code_to = pad_to;
    occ.heap_size = heap_size;
    occ.code_reserve = code_reserve;
    auto occ_out = toolchain::compile(source, occ);
    OCC_CHECK_MSG(occ_out.ok(), "workload compile failed: " +
                                    occ_out.error().message);
    verifier::Verifier verifier(bench_verifier_key());
    auto signed_image = verifier.verify_and_sign(
        std::move(occ_out.value().image));
    OCC_CHECK_MSG(signed_image.ok(), "workload verify failed: " +
                                         signed_image.error().message);
    build.occlum = signed_image.value().serialize();
    build.occlum_size = build.occlum.size();

    toolchain::CompileOptions plain;
    plain.instrument = toolchain::InstrumentOptions::none();
    plain.pad_code_to = pad_to;
    plain.heap_size = heap_size;
    plain.code_reserve = code_reserve;
    auto plain_out = toolchain::compile(source, plain);
    OCC_CHECK_MSG(plain_out.ok(), "workload compile failed (plain)");
    build.plain = plain_out.value().image.serialize();
    build.plain_size = build.plain.size();
    return build;
}

void
install(host::HostFileStore &store, const std::string &name,
        const Bytes &image)
{
    store.put(name, image);
}

// ---------------------------------------------------------------------
// Fish-like shell workload (Fig. 5a)
// ---------------------------------------------------------------------

std::string
fish_utility_source(const std::string &name)
{
    if (name == "gen") {
        // Emit ~2 KiB of pseudo-random newline-separated words.
        return R"(
global byte line[32];
func main() {
    var seed = 12345;
    var i = 0;
    while (i < 160) {
        var j = 0;
        while (j < 11) {
            seed = (seed * 1103515245 + 12345) & 0x7fffffff;
            line[j] = 'a' + (seed % 26);
            j = j + 1;
        }
        line[11] = 10;
        write(1, line, 12);
        i = i + 1;
    }
    return 0;
}
)";
    }
    if (name == "sort") {
        // Read all lines, bubble-sort by content, write out.
        return R"(
global byte buf[8192];
global int offs[512];
func main() {
    var total = 0;
    while (1) {
        var n = read(0, buf + total, 8192 - total);
        if (n <= 0) { break; }
        total = total + n;
    }
    var count = 0;
    var start = 0;
    var i = 0;
    while (i < total) {
        if (bload(buf + i) == 10) {
            offs[count] = start;
            count = count + 1;
            start = i + 1;
        }
        i = i + 1;
    }
    var swapped = 1;
    while (swapped) {
        swapped = 0;
        var k = 0;
        while (k + 1 < count) {
            var a = buf + offs[k];
            var b = buf + offs[k + 1];
            var cmp = 0;
            var j = 0;
            while (1) {
                var ca = bload(a + j);
                var cb = bload(b + j);
                if (ca != cb) { cmp = ca - cb; break; }
                if (ca == 10) { break; }
                j = j + 1;
            }
            if (cmp > 0) {
                var tmp = offs[k];
                offs[k] = offs[k + 1];
                offs[k + 1] = tmp;
                swapped = 1;
            }
            k = k + 1;
        }
    }
    var w = 0;
    while (w < count) {
        var p = buf + offs[w];
        var len = 0;
        while (bload(p + len) != 10) { len = len + 1; }
        write(1, p, len + 1);
        w = w + 1;
    }
    return 0;
}
)";
    }
    if (name == "grep") {
        // Keep lines containing the byte 'q'.
        return R"(
global byte buf[8192];
func main() {
    var total = 0;
    while (1) {
        var n = read(0, buf + total, 8192 - total);
        if (n <= 0) { break; }
        total = total + n;
    }
    var start = 0;
    var i = 0;
    while (i < total) {
        if (bload(buf + i) == 10) {
            var hit = 0;
            var j = start;
            while (j < i) {
                if (bload(buf + j) == 'q') { hit = 1; break; }
                j = j + 1;
            }
            if (hit) { write(1, buf + start, i - start + 1); }
            start = i + 1;
        }
        i = i + 1;
    }
    return 0;
}
)";
    }
    if (name == "od") {
        // Hex-dump stdin (doubles the byte count).
        return R"(
global byte inbuf[4096];
global byte outbuf[8192];
global byte digits[17] = "0123456789abcdef";
func main() {
    while (1) {
        var n = read(0, inbuf, 4096);
        if (n <= 0) { break; }
        var i = 0;
        while (i < n) {
            var b = bload(inbuf + i);
            outbuf[2 * i] = bload(digits + (b >> 4));
            outbuf[2 * i + 1] = bload(digits + (b & 15));
            i = i + 1;
        }
        write(1, outbuf, 2 * n);
    }
    return 0;
}
)";
    }
    if (name == "wc") {
        return R"(
global byte buf[4096];
func main() {
    var bytes = 0;
    var lines = 0;
    while (1) {
        var n = read(0, buf, 4096);
        if (n <= 0) { break; }
        var i = 0;
        while (i < n) {
            if (bload(buf + i) == 10) { lines = lines + 1; }
            i = i + 1;
        }
        bytes = bytes + n;
    }
    print_int(lines);
    print(" ");
    print_int(bytes);
    println("");
    return 0;
}
)";
    }
    OCC_PANIC("unknown fish utility " << name);
}

std::string
fish_driver_source()
{
    // Per iteration (argv[1] iterations): two pipelines,
    //   gen | sort | grep | wc      and      gen | od | wc
    // — seven process creations per iteration, mirroring the
    // UnixBench shell script's process-intensive profile.
    return R"(
global byte p_gen[8] = "gen";
global byte p_sort[8] = "sort";
global byte p_grep[8] = "grep";
global byte p_od[8] = "od";
global byte p_wc[8] = "wc";
global byte argbuf[16];
global int pids[8];

// Spawn `prog` with stdin=in_fd, stdout=out_fd (-1 = inherit).
func runp(prog, in_fd, out_fd) {
    var io[3];
    io[0] = in_fd;
    io[1] = out_fd;
    io[2] = 0 - 1;
    var argvv[1];
    argvv[0] = prog;
    return spawn_io(prog, argvv, 1, io);
}

func pipeline4(a, b, c, d) {
    var p1[2]; var p2[2]; var p3[2];
    pipe(p1); pipe(p2); pipe(p3);
    pids[0] = runp(a, 0 - 1, p1[1]);
    pids[1] = runp(b, p1[0], p2[1]);
    pids[2] = runp(c, p2[0], p3[1]);
    pids[3] = runp(d, p3[0], 0 - 1);
    close(p1[0]); close(p1[1]);
    close(p2[0]); close(p2[1]);
    close(p3[0]); close(p3[1]);
    var i = 0;
    while (i < 4) { waitpid(pids[i]); i = i + 1; }
    return 0;
}

func pipeline3(a, b, c) {
    var p1[2]; var p2[2];
    pipe(p1); pipe(p2);
    pids[0] = runp(a, 0 - 1, p1[1]);
    pids[1] = runp(b, p1[0], p2[1]);
    pids[2] = runp(c, p2[0], 0 - 1);
    close(p1[0]); close(p1[1]);
    close(p2[0]); close(p2[1]);
    var i = 0;
    while (i < 3) { waitpid(pids[i]); i = i + 1; }
    return 0;
}

func main() {
    var iters = 1;
    if (argc() > 1) {
        getarg(1, argbuf, 16);
        iters = atoi(argbuf);
    }
    var it = 0;
    while (it < iters) {
        pipeline4(p_gen, p_sort, p_grep, p_wc);
        pipeline3(p_gen, p_od, p_wc);
        it = it + 1;
    }
    return 0;
}
)";
}

// ---------------------------------------------------------------------
// GCC-like compile pipeline (Fig. 5b)
// ---------------------------------------------------------------------

std::string
gcc_stage_source(const std::string &stage)
{
    // Every stage streams stdin -> stdout doing per-byte "compiler"
    // work; cc1 performs several optimization passes per chunk.
    int passes = stage == "cc1" ? 6 : stage == "as" ? 2 : 1;
    std::string head = R"(
global byte buf[4096];
func main() {
    // Fixed start-up work: real compiler stages parse specs/options
    // and build tables before touching the input (this is why the
    // paper's hello-world compile takes 25 ms on native Linux).
    var warm = 0;
    var acc = 0;
    while (warm < 500000) {
        acc = acc + warm;
        warm = warm + 1;
    }
    var hash = 5381 + (acc & 1);
    var total = 0;
    while (1) {
        var n = read(0, buf, 4096);
        if (n <= 0) { break; }
        var pass = 0;
        while (pass < )" + std::to_string(passes) + R"() {
            var i = 0;
            while (i < n) {
                hash = (hash * 33 + bload(buf + i)) & 0xffffffff;
                i = i + 1;
            }
            pass = pass + 1;
        }
        // "Transform": rotate each byte by the running hash.
        var j = 0;
        while (j < n) {
            bstore(buf + j, (bload(buf + j) + 7) & 0xff);
            j = j + 1;
        }
        write(1, buf, n);
        total = total + n;
    }
)";
    if (stage == "ld") {
        head += R"(
    print("linked ");
    print_int(total);
    println(" bytes");
)";
    }
    head += R"(
    return hash & 0x7f;
}
)";
    return head;
}

std::string
gcc_driver_source()
{
    return R"(
global byte p_cpp[8] = "cpp";
global byte p_cc1[8] = "cc1";
global byte p_as[8] = "as";
global byte p_ld[8] = "ld";
global byte srcpath[64];
global byte buf[4096];
global int pids[4];

func runp(prog, in_fd, out_fd) {
    var io[3];
    io[0] = in_fd;
    io[1] = out_fd;
    io[2] = 0 - 1;
    var argvv[1];
    argvv[0] = prog;
    return spawn_io(prog, argvv, 1, io);
}

func main() {
    if (argc() < 2) { return 1; }
    getarg(1, srcpath, 64);
    var src = open(srcpath, 0);
    if (src < 0) { return 2; }

    var p0[2]; var p1[2]; var p2[2]; var p3[2];
    pipe(p0); pipe(p1); pipe(p2); pipe(p3);
    pids[0] = runp(p_cpp, p0[0], p1[1]);
    pids[1] = runp(p_cc1, p1[0], p2[1]);
    pids[2] = runp(p_as, p2[0], p3[1]);
    pids[3] = runp(p_ld, p3[0], 0 - 1);
    close(p0[0]);
    close(p1[0]); close(p1[1]);
    close(p2[0]); close(p2[1]);
    close(p3[0]); close(p3[1]);

    // Feed the translation unit into the preprocessor.
    while (1) {
        var n = read(src, buf, 4096);
        if (n <= 0) { break; }
        write(p0[1], buf, n);
    }
    close(p0[1]);
    close(src);
    var i = 0;
    while (i < 4) { waitpid(pids[i]); i = i + 1; }
    return 0;
}
)";
}

// ---------------------------------------------------------------------
// Lighttpd-like server (Fig. 5c)
// ---------------------------------------------------------------------

std::string
httpd_worker_source()
{
    // The listening socket arrives as fd 0 (inherited from the
    // master, like Lighttpd workers inheriting the listener).
    return R"(
global byte req[512];
global byte page[10240];
global byte argbuf[16];
func main() {
    var count = 1000000;
    if (argc() > 1) {
        getarg(1, argbuf, 16);
        count = atoi(argbuf);
    }
    memset(page, 'x', 10240);
    memcpy(page, "HTTP/1.1 200 OK\r\n\r\n", 19);
    var served = 0;
    while (served < count) {
        var conn = sock_accept(0);
        if (conn < 0) { break; }
        var n = sock_recv(conn, req, 512);
        if (n > 0) {
            sock_send(conn, page, 10240);
        }
        close(conn);
        served = served + 1;
    }
    return served;
}
)";
}

std::string
httpd_master_source()
{
    return R"(
global byte worker[16] = "httpd_worker";
global byte argbuf[16];
global byte cntbuf[16];
global int pids[8];
func main() {
    var workers = 2;
    var per_worker = 100;
    if (argc() > 1) { getarg(1, argbuf, 16); workers = atoi(argbuf); }
    if (argc() > 2) { getarg(2, cntbuf, 16); per_worker = atoi(cntbuf); }
    var listener = sock_listen(8080, 128);
    if (listener < 0) { return 1; }
    itoa(per_worker, cntbuf);
    var argvv[2];
    argvv[0] = worker;
    argvv[1] = cntbuf;
    var io[3];
    io[0] = listener; // the listening socket rides in as fd 0
    io[1] = 0 - 1;
    io[2] = 0 - 1;
    var w = 0;
    while (w < workers) {
        pids[w] = spawn_io(worker, argvv, 2, io);
        w = w + 1;
    }
    var total = 0;
    w = 0;
    while (w < workers) {
        total = total + waitpid(pids[w]);
        w = w + 1;
    }
    return total & 0x7f;
}
)";
}

std::string
httpd_poll_source()
{
    // Single process, single pollfd set: record i lives at
    // pfds[i*3 .. i*3+2] = {fd, events, revents} (the kernel's poll
    // ABI, 3 ints per record). Record 0 is the listener. Idle
    // connections sit in the set without costing a syscall until
    // their readiness edge fires; that is the whole point of the
    // sweep in bench_fig5c_lighttpd.
    return R"(
global int pfds[3264];
global byte req[512];
global byte page[10240];
global byte argbuf[16];
func main() {
    var count = 1000000;
    var backlog = 128;
    if (argc() > 1) { getarg(1, argbuf, 16); count = atoi(argbuf); }
    if (argc() > 2) { getarg(2, argbuf, 16); backlog = atoi(argbuf); }
    memset(page, 'x', 10240);
    memcpy(page, "HTTP/1.1 200 OK\r\n\r\n", 19);
    var listener = sock_listen(8080, backlog);
    if (listener < 0) { return 1; }
    pfds[0] = listener;
    pfds[1] = 0x1;
    pfds[2] = 0;
    var nfds = 1;
    var served = 0;
    while (served < count) {
        var ready = poll(pfds, nfds, 0 - 1);
        if (ready <= 0) { return 2; }
        if (pfds[2] & 0x1) {
            // One accept per readiness edge: accept() blocks when the
            // backlog is empty, and poll just told us it is not.
            var conn = sock_accept(listener);
            if (conn >= 0) {
                pfds[nfds * 3] = conn;
                pfds[nfds * 3 + 1] = 0x1;
                pfds[nfds * 3 + 2] = 0;
                nfds = nfds + 1;
            }
        }
        var i = 1;
        while (i < nfds) {
            if (pfds[i * 3 + 2] & 0x39) {
                // POLLIN|POLLERR|POLLHUP|POLLNVAL: serve or reap.
                var cfd = pfds[i * 3];
                var n = sock_recv(cfd, req, 512);
                if (n > 0) {
                    sock_send(cfd, page, 10240);
                    served = served + 1;
                }
                close(cfd);
                nfds = nfds - 1;
                pfds[i * 3] = pfds[nfds * 3];
                pfds[i * 3 + 1] = pfds[nfds * 3 + 1];
                pfds[i * 3 + 2] = pfds[nfds * 3 + 2];
                // The swapped-in record carries this round's revents;
                // revisit the slot.
                i = i - 1;
            }
            i = i + 1;
        }
    }
    return served & 0x7f;
}
)";
}

std::string
httpd_epoll_source()
{
    // The epoll twin of httpd_poll_source: the interest list lives in
    // the kernel, so the loop never re-submits the fd set and each
    // wait returns only the fds whose readiness actually changed —
    // O(active), not O(watched). The listener stays level-triggered
    // (one accept per event; a non-empty backlog keeps it ready), and
    // accepted connections are edge-triggered: one report per data
    // arrival, consumed by the serve-and-close below.
    return R"(
global int evs[2048];
global byte req[512];
global byte page[10240];
global byte argbuf[16];
func main() {
    var count = 1000000;
    var backlog = 128;
    if (argc() > 1) { getarg(1, argbuf, 16); count = atoi(argbuf); }
    if (argc() > 2) { getarg(2, argbuf, 16); backlog = atoi(argbuf); }
    memset(page, 'x', 10240);
    memcpy(page, "HTTP/1.1 200 OK\r\n\r\n", 19);
    var listener = sock_listen(8080, backlog);
    if (listener < 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, listener, 0x1) < 0) { return 3; }
    var served = 0;
    while (served < count) {
        var n = epoll_wait(ep, evs, 1024, 0 - 1);
        if (n <= 0) { return 4; }
        var i = 0;
        while (i < n) {
            var fd = evs[i * 2];
            var re = evs[i * 2 + 1];
            if (fd == listener) {
                var conn = sock_accept(listener);
                if (conn >= 0) {
                    // EPOLLET | POLLIN: report each arrival once.
                    epoll_ctl(ep, 1, conn, 0x80000001);
                }
            } else {
                if (re & 0x39) {
                    var m = sock_recv(fd, req, 512);
                    if (m > 0) {
                        sock_send(fd, page, 10240);
                        served = served + 1;
                    }
                    // close() drops the interest entry with the fd.
                    close(fd);
                }
            }
            i = i + 1;
        }
    }
    return served & 0x7f;
}
)";
}

// ---------------------------------------------------------------------
// Reverse proxy + backend pool (spawn + pipes + sockets in one loop)
// ---------------------------------------------------------------------

std::string
proxy_backend_source()
{
    // Backend worker: jobs arrive on stdin as 8-byte little-endian
    // connection ids; each produces a {conn-id, 10240-byte page}
    // response on stdout. EOF on the job pipe is the shutdown signal.
    return R"(
global byte job[8];
global byte out[10248];
func main() {
    memset(out + 8, 'x', 10240);
    memcpy(out + 8, "HTTP/1.1 200 OK\r\n\r\n", 19);
    while (1) {
        var got = 0;
        while (got < 8) {
            var n = read(0, job + got, 8 - got);
            if (n <= 0) { return 0; }
            got = got + n;
        }
        memcpy(out, job, 8);
        var sent = 0;
        while (sent < 10248) {
            var w = write(1, out + sent, 10248 - sent);
            if (w <= 0) { return 1; }
            sent = sent + w;
        }
    }
    return 0;
}
)";
}

std::string
proxy_frontend_source()
{
    // Frontend: one epoll set multiplexes the listener (LT), every
    // accepted connection (ET), and the four backend result pipes
    // (LT). Pipe reads are short-read safe: each backend has its own
    // reassembly buffer, and a response is only dispatched once all
    // 10248 bytes (8-byte conn id + page) have landed.
    return R"(
global int evs[512];
global byte req[512];
global byte job[8];
global byte backend[16] = "proxy_backend";
global int jobw[4];
global int resr[4];
global int bpids[4];
global byte acc[40992];
global int fill[4];
global byte argbuf[16];
func put64(buf, v) {
    var i = 0;
    while (i < 8) {
        bstore(buf + i, (v >> (i * 8)) & 0xff);
        i = i + 1;
    }
    return 0;
}
func get64(buf) {
    var v = 0;
    var i = 0;
    while (i < 8) {
        v = v | (bload(buf + i) << (i * 8));
        i = i + 1;
    }
    return v;
}
func main() {
    var count = 64;
    var backlog = 128;
    if (argc() > 1) { getarg(1, argbuf, 16); count = atoi(argbuf); }
    if (argc() > 2) { getarg(2, argbuf, 16); backlog = atoi(argbuf); }
    var listener = sock_listen(8080, backlog);
    if (listener < 0) { return 1; }
    var ep = epoll_create();
    if (ep < 0) { return 2; }
    if (epoll_ctl(ep, 1, listener, 0x1) < 0) { return 3; }
    var argvv[1];
    argvv[0] = backend;
    var b = 0;
    while (b < 4) {
        var jp[2];
        var rp[2];
        if (pipe(jp) < 0) { return 4; }
        if (pipe(rp) < 0) { return 4; }
        var io3[3];
        io3[0] = jp[0];
        io3[1] = rp[1];
        io3[2] = 0 - 1;
        bpids[b] = spawn_io(backend, argvv, 1, io3);
        if (bpids[b] < 0) { return 5; }
        close(jp[0]);
        close(rp[1]);
        jobw[b] = jp[1];
        resr[b] = rp[0];
        fill[b] = 0;
        if (epoll_ctl(ep, 1, resr[b], 0x1) < 0) { return 6; }
        b = b + 1;
    }
    var served = 0;
    var next = 0;
    while (served < count) {
        var n = epoll_wait(ep, evs, 256, 0 - 1);
        if (n <= 0) { return 7; }
        var i = 0;
        while (i < n) {
            var fd = evs[i * 2];
            var re = evs[i * 2 + 1];
            var which = 0 - 1;
            b = 0;
            while (b < 4) {
                if (fd == resr[b]) { which = b; }
                b = b + 1;
            }
            if (which >= 0) {
                // Backend response bytes: reassemble, then relay.
                var base = which * 10248;
                var m = read(fd, acc + base + fill[which],
                             10248 - fill[which]);
                if (m > 0) { fill[which] = fill[which] + m; }
                if (fill[which] == 10248) {
                    var conn = get64(acc + base);
                    sock_send(conn, acc + base + 8, 10240);
                    close(conn);
                    served = served + 1;
                    fill[which] = 0;
                }
            } else {
                if (fd == listener) {
                    conn = sock_accept(listener);
                    if (conn >= 0) {
                        epoll_ctl(ep, 1, conn, 0x80000001);
                    }
                } else {
                    if (re & 0x39) {
                        m = sock_recv(fd, req, 512);
                        if (m > 0) {
                            put64(job, fd);
                            var sent = 0;
                            while (sent < 8) {
                                var w = write(jobw[next], job + sent,
                                              8 - sent);
                                if (w <= 0) { return 8; }
                                sent = sent + w;
                            }
                            next = next + 1;
                            if (next == 4) { next = 0; }
                        } else {
                            close(fd);
                        }
                    }
                }
            }
            i = i + 1;
        }
    }
    b = 0;
    while (b < 4) {
        close(jobw[b]);
        waitpid(bpids[b]);
        b = b + 1;
    }
    return 0;
}
)";
}

// ---------------------------------------------------------------------
// Microbenchmarks (Fig. 6)
// ---------------------------------------------------------------------

std::string
spawn_noop_source()
{
    return "func main() { return 0; }";
}

std::string
pipe_writer_source()
{
    return R"(
global byte buf[4096];
global byte argbuf[24];
func main() {
    var chunk = 4096;
    var total = 1048576;
    if (argc() > 1) { getarg(1, argbuf, 24); chunk = atoi(argbuf); }
    if (argc() > 2) { getarg(2, argbuf, 24); total = atoi(argbuf); }
    memset(buf, 'd', chunk);
    var sent = 0;
    while (sent < total) {
        var n = write(1, buf, chunk);
        if (n <= 0) { break; }
        sent = sent + n;
    }
    return 0;
}
)";
}

std::string
pipe_reader_source()
{
    // Prints "RESULT <bytes> <ns>" measured from first byte to EOF so
    // the spawn cost of either end is excluded from the throughput.
    return R"(
global byte buf[4096];
global byte argbuf[24];
func main() {
    var chunk = 4096;
    if (argc() > 1) { getarg(1, argbuf, 24); chunk = atoi(argbuf); }
    var total = 0;
    var t0 = 0;
    while (1) {
        var n = read(0, buf, chunk);
        if (n <= 0) { break; }
        if (t0 == 0) { t0 = time_ns(); }
        total = total + n;
    }
    var t1 = time_ns();
    print("RESULT ");
    print_int(total);
    print(" ");
    print_int(t1 - t0);
    println("");
    return 0;
}
)";
}

std::string
file_write_bench_source()
{
    return R"(
global byte buf[16384];
global byte argbuf[24];
global byte path[24] = "/bench.dat";
func main() {
    var chunk = 4096;
    var total = 262144;
    if (argc() > 1) { getarg(1, argbuf, 24); chunk = atoi(argbuf); }
    if (argc() > 2) { getarg(2, argbuf, 24); total = atoi(argbuf); }
    memset(buf, 'w', chunk);
    var fd = open(path, 0x242);   // CREAT|TRUNC|WRONLY
    if (fd < 0) { return 1; }
    var t0 = time_ns();
    var done = 0;
    while (done < total) {
        var n = write(fd, buf, chunk);
        if (n <= 0) { return 2; }
        done = done + n;
    }
    fsync(fd);
    var t1 = time_ns();
    close(fd);
    print("RESULT ");
    print_int(done);
    print(" ");
    print_int(t1 - t0);
    println("");
    return 0;
}
)";
}

std::string
file_read_bench_source()
{
    return R"(
global byte buf[16384];
global byte argbuf[24];
global byte path[24] = "/bench.dat";
func main() {
    var chunk = 4096;
    if (argc() > 1) { getarg(1, argbuf, 24); chunk = atoi(argbuf); }
    var fd = open(path, 0);
    if (fd < 0) { return 1; }
    var t0 = time_ns();
    var total = 0;
    while (1) {
        var n = read(fd, buf, chunk);
        if (n <= 0) { break; }
        total = total + n;
    }
    var t1 = time_ns();
    close(fd);
    print("RESULT ");
    print_int(total);
    print(" ");
    print_int(t1 - t0);
    println("");
    return 0;
}
)";
}

// ---------------------------------------------------------------------
// SPECint2006-like kernels (Fig. 7)
// ---------------------------------------------------------------------

const std::vector<std::string> &
spec_kernel_names()
{
    static const std::vector<std::string> names = {
        "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer",
        "sjeng", "libquantum", "h264ref", "omnetpp", "astar",
        "xalancbmk",
    };
    return names;
}

std::string
spec_kernel_source(const std::string &name)
{
    if (name == "perlbench") {
        // String hashing + pattern matching over generated text.
        return R"(
global byte text[16384];
func main() {
    var seed = 7;
    for (i = 0; i < 16384; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        text[i] = 'a' + (seed % 26);
    }
    var hash = 0;
    var matches = 0;
    var round = 0;
    while (round < 16) {
        for (i = 0; i < 16380; i = i + 1) {
            hash = (hash * 31 + text[i]) & 0xffffff;
            if (text[i] == 'c') {
                if (text[i + 1] == 'a') {
                    if (text[i + 2] == 't') { matches = matches + 1; }
                }
            }
        }
        round = round + 1;
    }
    return (hash + matches) & 0xff;
}
)";
    }
    if (name == "bzip2") {
        // Run-length + move-to-front coding.
        return R"(
global byte data[8192];
global byte mtf[256];
global byte out[8192];
func main() {
    var seed = 99;
    for (i = 0; i < 8192; i = i + 1) {
        seed = (seed * 69069 + 1) & 0x7fffffff;
        data[i] = (seed >> 8) & 0x3f;
    }
    var check = 0;
    var round = 0;
    while (round < 12) {
        for (i = 0; i < 256; i = i + 1) { mtf[i] = i; }
        for (i = 0; i < 8192; i = i + 1) {
            var b = data[i];
            var j = 0;
            while (mtf[j] != b) { j = j + 1; }
            out[i] = j;
            while (j > 0) {
                mtf[j] = mtf[j - 1];
                j = j - 1;
            }
            mtf[0] = b;
        }
        for (i = 0; i < 8192; i = i + 1) {
            check = (check + out[i]) & 0xffffff;
        }
        round = round + 1;
    }
    return check & 0xff;
}
)";
    }
    if (name == "gcc") {
        // Token scanning + symbol-table style probing.
        return R"(
global byte src[12288];
global int table[1024];
func main() {
    var seed = 3;
    for (i = 0; i < 12288; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        src[i] = 32 + (seed % 90);
    }
    var symbols = 0;
    var round = 0;
    while (round < 10) {
        var h = 0;
        for (i = 0; i < 12288; i = i + 1) {
            var c = src[i];
            if (c > 'a') {
                h = (h * 65599 + c) & 1023;
            } else {
                if (h != 0) {
                    var idx = h;
                    if (table[idx] == 0) {
                        table[idx] = h;
                        symbols = symbols + 1;
                    }
                    h = 0;
                }
            }
        }
        round = round + 1;
    }
    return symbols & 0xff;
}
)";
    }
    if (name == "mcf") {
        // Bellman-Ford relaxation over a synthetic flow network.
        return R"(
global int dist[2048];
global int edge_from[4096];
global int edge_to[4096];
global int edge_cost[4096];
func main() {
    var seed = 41;
    for (i = 0; i < 4096; i = i + 1) {
        seed = (seed * 69069 + 7) & 0x7fffffff;
        edge_from[i] = seed % 2048;
        seed = (seed * 69069 + 7) & 0x7fffffff;
        edge_to[i] = seed % 2048;
        edge_cost[i] = 1 + (seed % 97);
    }
    for (i = 0; i < 2048; i = i + 1) { dist[i] = 1000000; }
    dist[0] = 0;
    var round = 0;
    while (round < 24) {
        for (i = 0; i < 4096; i = i + 1) {
            var u = edge_from[i];
            var v = edge_to[i];
            var du = wload(dist + u * 8);
            var alt = du + edge_cost[i];
            if (alt < wload(dist + v * 8)) {
                wstore(dist + v * 8, alt);
            }
        }
        round = round + 1;
    }
    var sum = 0;
    for (i = 0; i < 2048; i = i + 1) { sum = sum + dist[i]; }
    return sum & 0xff;
}
)";
    }
    if (name == "gobmk") {
        // Influence propagation on a 19x19 board.
        return R"(
global int board[512];
global int influence[512];
func main() {
    var seed = 5;
    for (i = 0; i < 361; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        board[i] = seed % 3;
    }
    var round = 0;
    while (round < 120) {
        for (i = 0; i < 361; i = i + 1) {
            var v = board[i] * 64;
            if (i >= 19) { v = v + influence[i - 19] / 4; }
            if (i < 342) { v = v + influence[i + 19] / 4; }
            if (i >= 1) { v = v + influence[i - 1] / 4; }
            if (i < 360) { v = v + influence[i + 1] / 4; }
            influence[i] = v & 0xffff;
        }
        round = round + 1;
    }
    var sum = 0;
    for (i = 0; i < 361; i = i + 1) { sum = sum + influence[i]; }
    return sum & 0xff;
}
)";
    }
    if (name == "hmmer") {
        // Viterbi-style dynamic programming over integer scores.
        return R"(
global int prev_row[1024];
global int curr_row[1024];
global byte seq[2048];
func main() {
    var seed = 17;
    for (i = 0; i < 2048; i = i + 1) {
        seed = (seed * 69069 + 3) & 0x7fffffff;
        seq[i] = seed % 4;
    }
    for (i = 0; i < 1024; i = i + 1) { prev_row[i] = 0; }
    var t = 0;
    while (t < 96) {
        var emit = seq[t % 2048] * 3 + 1;
        for (i = 1; i < 1024; i = i + 1) {
            var stay = prev_row[i] + 1;
            var move = prev_row[i - 1] + emit;
            if (move > stay) {
                curr_row[i] = move;
            } else {
                curr_row[i] = stay;
            }
        }
        for (i = 0; i < 1024; i = i + 1) {
            prev_row[i] = curr_row[i];
        }
        t = t + 1;
    }
    return prev_row[1023] & 0xff;
}
)";
    }
    if (name == "sjeng") {
        // Branchy alpha-beta-ish board scoring.
        return R"(
global int squares[128];
func eval(depth, alpha, beta, seed) {
    if (depth == 0) {
        return (seed * 31 + squares[seed & 127]) % 1000;
    }
    var best = alpha;
    var move = 0;
    while (move < 4) {
        var s = (seed * 69069 + move) & 0x7fffffff;
        var score = -eval(depth - 1, -beta, -best, s % 9973);
        if (score > best) { best = score; }
        if (best >= beta) { return best; }
        move = move + 1;
    }
    return best;
}
func main() {
    var seed = 23;
    for (i = 0; i < 128; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        squares[i] = seed % 500;
    }
    var total = 0;
    var game = 0;
    while (game < 40) {
        total = total + eval(7, -100000, 100000, game * 37 + 1);
        game = game + 1;
    }
    return total & 0xff;
}
)";
    }
    if (name == "libquantum") {
        // Quantum-gate bit fiddling over a register array.
        return R"(
global int amp[4096];
func main() {
    for (i = 0; i < 4096; i = i + 1) { amp[i] = i * 2654435761; }
    var round = 0;
    while (round < 40) {
        var target = round % 12;
        var mask = 1 << target;
        for (i = 0; i < 4096; i = i + 1) {
            var state = amp[i];
            if ((i & mask) != 0) {
                amp[i] = state ^ (state >> target);
            } else {
                amp[i] = state + (i & 0xff);
            }
        }
        round = round + 1;
    }
    var sum = 0;
    for (i = 0; i < 4096; i = i + 1) { sum = sum + amp[i]; }
    return sum & 0xff;
}
)";
    }
    if (name == "h264ref") {
        // Sum-of-absolute-differences block search.
        return R"(
global byte frame_a[16384];
global byte frame_b[16384];
func main() {
    var seed = 77;
    for (i = 0; i < 16384; i = i + 1) {
        seed = (seed * 69069 + 11) & 0x7fffffff;
        frame_a[i] = seed & 0xff;
        frame_b[i] = (seed >> 8) & 0xff;
    }
    var best_total = 0;
    var block = 0;
    while (block < 48) {
        var base = (block * 317) % 15000;
        var best = 1000000;
        var cand = 0;
        while (cand < 24) {
            var off = (cand * 53) % 15000;
            var sad = 0;
            for (i = 0; i < 256; i = i + 1) {
                var d = frame_a[base + i] - frame_b[off + i];
                if (d < 0) { d = -d; }
                sad = sad + d;
            }
            if (sad < best) { best = sad; }
            cand = cand + 1;
        }
        best_total = best_total + best;
        block = block + 1;
    }
    return best_total & 0xff;
}
)";
    }
    if (name == "omnetpp") {
        // Discrete-event simulation over a binary-heap event queue.
        return R"(
global int heap_time[4096];
global int heap_kind[4096];
global int heap_len;
func heap_push(t, kind) {
    var i = heap_len;
    heap_time[i] = t;
    heap_kind[i] = kind;
    heap_len = heap_len + 1;
    while (i > 0) {
        var parent = (i - 1) / 2;
        if (wload(heap_time + parent * 8) <= wload(heap_time + i * 8)) {
            break;
        }
        var tt = heap_time[parent];
        heap_time[parent] = heap_time[i];
        wstore(heap_time + i * 8, tt);
        var kk = heap_kind[parent];
        heap_kind[parent] = heap_kind[i];
        wstore(heap_kind + i * 8, kk);
        i = parent;
    }
    return 0;
}
func heap_pop() {
    var top = heap_time[0];
    heap_len = heap_len - 1;
    heap_time[0] = heap_time[heap_len];
    heap_kind[0] = heap_kind[heap_len];
    var i = 0;
    while (1) {
        var l = 2 * i + 1;
        var r = 2 * i + 2;
        var small = i;
        if (l < heap_len) {
            if (wload(heap_time + l * 8) < wload(heap_time + small * 8)) {
                small = l;
            }
        }
        if (r < heap_len) {
            if (wload(heap_time + r * 8) < wload(heap_time + small * 8)) {
                small = r;
            }
        }
        if (small == i) { break; }
        var tt = heap_time[small];
        heap_time[small] = heap_time[i];
        wstore(heap_time + i * 8, tt);
        var kk = heap_kind[small];
        heap_kind[small] = heap_kind[i];
        wstore(heap_kind + i * 8, kk);
        i = small;
    }
    return top;
}
func main() {
    heap_len = 0;
    var seed = 31;
    for (i = 0; i < 512; i = i + 1) {
        seed = (seed * 69069 + 5) & 0x7fffffff;
        heap_push(seed % 100000, i & 7);
    }
    var clock = 0;
    var processed = 0;
    while (processed < 20000) {
        if (heap_len == 0) { break; }
        clock = heap_pop();
        seed = (seed * 69069 + 5) & 0x7fffffff;
        heap_push(clock + 1 + (seed % 512), seed & 7);
        processed = processed + 1;
    }
    return (clock + processed) & 0xff;
}
)";
    }
    if (name == "astar") {
        // Grid pathfinding with a relaxation frontier.
        return R"(
global int cost[16384];
global int dist[16384];
func main() {
    var seed = 13;
    for (i = 0; i < 16384; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        cost[i] = 1 + (seed % 9);
        dist[i] = 1000000;
    }
    dist[0] = 0;
    var round = 0;
    while (round < 12) {
        for (i = 0; i < 16384; i = i + 1) {
            var d = wload(dist + i * 8);
            if (d < 1000000) {
                var right = i + 1;
                if ((right & 127) != 0) {
                    var nd = d + wload(cost + right * 8);
                    if (nd < wload(dist + right * 8)) {
                        wstore(dist + right * 8, nd);
                    }
                }
                var down = i + 128;
                if (down < 16384) {
                    var nd2 = d + wload(cost + down * 8);
                    if (nd2 < wload(dist + down * 8)) {
                        wstore(dist + down * 8, nd2);
                    }
                }
            }
        }
        round = round + 1;
    }
    return dist[16383] & 0xff;
}
)";
    }
    if (name == "xalancbmk") {
        // XML-ish tree building + repeated traversals.
        return R"(
global int first_child[8192];
global int next_sibling[8192];
global int value[8192];
func main() {
    var seed = 19;
    first_child[0] = 0 - 1;
    next_sibling[0] = 0 - 1;
    for (i = 1; i < 8192; i = i + 1) {
        seed = (seed * 69069 + 13) & 0x7fffffff;
        var parent = seed % i;
        next_sibling[i] = first_child[parent];
        first_child[parent] = i;
        first_child[i] = 0 - 1;
        value[i] = seed % 1000;
    }
    var total = 0;
    var stack = malloc(8192 * 8);
    if (stack == 0) { return 1; }
    var round = 0;
    while (round < 30) {
        // Iterative DFS with an explicit stack.
        var top = 0;
        wstore(stack, 0);
        top = 1;
        while (top > 0) {
            top = top - 1;
            var node = wload(stack + top * 8);
            total = (total + wload(value + node * 8)) & 0xffffff;
            var child = wload(first_child + node * 8);
            while (child >= 0) {
                wstore(stack + top * 8, child);
                top = top + 1;
                child = wload(next_sibling + child * 8);
            }
        }
        round = round + 1;
    }
    return total & 0xff;
}
)";
    }
    OCC_PANIC("unknown SPEC kernel " << name);
}

} // namespace occlum::workloads
