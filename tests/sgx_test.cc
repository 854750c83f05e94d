/**
 * @file
 * SGX substrate tests: enclave lifecycle and measurement, the SGX 1.0
 * static-permissions restriction, SSA save/restore of bound registers
 * across AEX (paper §2.1/§2.3), local attestation, and EPC accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "sgx/sgx.h"

namespace occlum::sgx {
namespace {

constexpr uint64_t kBase = 0x10000000;

TEST(Enclave, MeasurementIsDeterministic)
{
    Bytes content(vm::kPageSize, 0x42);
    auto build = [&](Platform &platform) {
        Enclave enclave(platform, kBase, 1 << 20);
        EXPECT_TRUE(
            enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX, content)
                .ok());
        EXPECT_TRUE(enclave.init().ok());
        return enclave.measurement();
    };
    Platform p1, p2;
    EXPECT_EQ(build(p1), build(p2));
}

TEST(Enclave, MeasurementDependsOnContentAndLayout)
{
    Platform platform;
    Bytes a(vm::kPageSize, 1), b(vm::kPageSize, 2);

    Enclave e1(platform, kBase, 1 << 20);
    ASSERT_TRUE(e1.add_pages(kBase, vm::kPageSize, vm::kPermRX, a).ok());
    ASSERT_TRUE(e1.init().ok());

    Enclave e2(platform, kBase, 1 << 20);
    ASSERT_TRUE(e2.add_pages(kBase, vm::kPageSize, vm::kPermRX, b).ok());
    ASSERT_TRUE(e2.init().ok());
    EXPECT_NE(e1.measurement(), e2.measurement());

    // Same content at a different vaddr changes the measurement too.
    Enclave e3(platform, kBase, 1 << 20);
    ASSERT_TRUE(e3.add_pages(kBase + vm::kPageSize, vm::kPageSize,
                             vm::kPermRX, a)
                    .ok());
    ASSERT_TRUE(e3.init().ok());
    EXPECT_NE(e1.measurement(), e3.measurement());

    // ...and so do page permissions.
    Enclave e4(platform, kBase, 1 << 20);
    ASSERT_TRUE(e4.add_pages(kBase, vm::kPageSize, vm::kPermRW, a).ok());
    ASSERT_TRUE(e4.init().ok());
    EXPECT_NE(e1.measurement(), e4.measurement());
}

TEST(Enclave, Sgx1FreezesPagesAfterInit)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRW).ok());
    ASSERT_TRUE(
        enclave.runtime_protect(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());
    // After EINIT: no adds, no permission changes, no reserves.
    EXPECT_FALSE(
        enclave.add_pages(kBase + vm::kPageSize, vm::kPageSize,
                          vm::kPermRW)
            .ok());
    EXPECT_FALSE(
        enclave.runtime_protect(kBase, vm::kPageSize, vm::kPermRWX).ok());
    EXPECT_FALSE(enclave.measure_reserved(vm::kPageSize).ok());
    EXPECT_FALSE(enclave.init().ok()); // double EINIT
}

TEST(Enclave, PagePermissionChangesInvalidateCodeCaches)
{
    // The VM's predecoded block cache keys its validity off the
    // address space's code generation; every enclave path that can
    // change what is executable must advance it.
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    uint64_t gen = enclave.mem().code_generation();

    // EADD of an executable page (maps + writes content).
    Bytes content(vm::kPageSize, 0x90);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX, content)
            .ok());
    EXPECT_GT(enclave.mem().code_generation(), gen);
    gen = enclave.mem().code_generation();

    // runtime_protect flipping X off and on (pre-EINIT EMODPE model).
    ASSERT_TRUE(
        enclave.runtime_protect(kBase, vm::kPageSize, vm::kPermRW).ok());
    EXPECT_GT(enclave.mem().code_generation(), gen);
    gen = enclave.mem().code_generation();
    ASSERT_TRUE(
        enclave.runtime_protect(kBase, vm::kPageSize, vm::kPermRX).ok());
    EXPECT_GT(enclave.mem().code_generation(), gen);
    gen = enclave.mem().code_generation();

    // Adding and touching data-only pages leaves code caches alone.
    ASSERT_TRUE(enclave
                    .add_pages(kBase + vm::kPageSize, vm::kPageSize,
                               vm::kPermRW)
                    .ok());
    EXPECT_EQ(enclave.mem().code_generation(), gen);
}

TEST(Enclave, RejectsOutOfRangeAndUnalignedAdds)
{
    Platform platform;
    Enclave enclave(platform, kBase, 2 * vm::kPageSize);
    EXPECT_FALSE(
        enclave.add_pages(kBase + 123, vm::kPageSize, vm::kPermRW).ok());
    EXPECT_FALSE(enclave
                     .add_pages(kBase + 4 * vm::kPageSize, vm::kPageSize,
                                vm::kPermRW)
                     .ok());
    EXPECT_FALSE(enclave.add_pages(kBase, 0, vm::kPermRW).ok());
}

TEST(Enclave, CreationChargesMeasurementCycles)
{
    Platform platform;
    uint64_t before = platform.clock().cycles();
    Enclave enclave(platform, kBase, 1 << 20);
    uint64_t pages = 64;
    ASSERT_TRUE(
        enclave.add_pages(kBase, pages * vm::kPageSize, vm::kPermRW)
            .ok());
    uint64_t spent = platform.clock().cycles() - before;
    EXPECT_GE(spent, CostModel::kEnclaveCreateFixedCycles +
                         pages * CostModel::kEaddEextendCyclesPerPage);
}

TEST(Enclave, EpcAccountingAndRelease)
{
    Platform platform(8 * vm::kPageSize); // tiny EPC
    {
        Enclave enclave(platform, kBase, 1 << 20);
        ASSERT_TRUE(
            enclave.add_pages(kBase, 4 * vm::kPageSize, vm::kPermRW)
                .ok());
        EXPECT_EQ(platform.epc_used(), 4 * vm::kPageSize);
        // Exceeding EPC fails.
        EXPECT_FALSE(enclave
                         .add_pages(kBase + 4 * vm::kPageSize,
                                    8 * vm::kPageSize, vm::kPermRW)
                         .ok());
    }
    EXPECT_EQ(platform.epc_used(), 0u); // released on destruction
}

TEST(SgxThread, AexSavesAndRestoresBoundRegisters)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    SgxThread thread(enclave);
    thread.cpu().set_reg(3, 0xdeadbeef);
    thread.cpu().set_bnd(0, {0x1000, 0x1fff});
    thread.cpu().set_bnd(1, {42, 42});
    thread.cpu().set_rip(kBase + 8);

    thread.aex();
    // A malicious host cannot touch the SSA; clobber the live state to
    // prove resume() restores everything from the snapshot.
    thread.cpu().set_reg(3, 0);
    thread.cpu().set_bnd(0, {0, ~0ull});
    thread.cpu().set_rip(0);
    thread.resume();

    EXPECT_EQ(thread.cpu().reg(3), 0xdeadbeefu);
    EXPECT_EQ(thread.cpu().bnd(0).lo, 0x1000u);
    EXPECT_EQ(thread.cpu().bnd(0).hi, 0x1fffu);
    EXPECT_EQ(thread.cpu().bnd(1).lo, 42u);
    EXPECT_EQ(thread.cpu().rip(), kBase + 8);
}

TEST(SgxThread, NestedAexIsRejectedUntilResume)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    SgxThread thread(enclave);
    thread.cpu().set_reg(0, 0x11);
    thread.cpu().set_rip(kBase);

    // The TCS has a single SSA frame (NSSA=1): a second exit before
    // ERESUME would overwrite the first snapshot and lose the real
    // interrupted state, so injection while in_aex must be refused.
    ASSERT_TRUE(thread.try_aex());
    EXPECT_FALSE(thread.try_aex());
    // The refused attempt must not have disturbed the saved frame.
    thread.resume();
    EXPECT_EQ(thread.cpu().reg(0), 0x11u);
    EXPECT_EQ(thread.cpu().rip(), kBase);
    // Once resumed the thread can take the next AEX normally.
    EXPECT_TRUE(thread.try_aex());
    thread.resume();
}

TEST(SgxThread, AexScrubsLiveStateAndBindsExternalCpu)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    // A TCS bound to an externally-owned CPU (how injected AEX storms
    // interrupt a running SIP's processor mid-quantum).
    vm::Cpu cpu(enclave.mem());
    cpu.set_reg(5, 0x5555);
    cpu.set_bnd(1, {0x100, 0x1ff});
    cpu.set_rip(kBase + 16);

    SgxThread thread(enclave, cpu);
    ASSERT_TRUE(thread.try_aex());
    // On exit the hardware hands scrubbed registers to the host: the
    // live state must carry nothing of the enclave's.
    EXPECT_NE(cpu.reg(5), 0x5555u);
    EXPECT_EQ(cpu.bnd(1).lo, 0u);
    EXPECT_EQ(cpu.rip(), 0u);
    thread.resume();
    EXPECT_EQ(cpu.reg(5), 0x5555u);
    EXPECT_EQ(cpu.bnd(1).lo, 0x100u);
    EXPECT_EQ(cpu.bnd(1).hi, 0x1ffu);
    EXPECT_EQ(cpu.rip(), kBase + 16);
}

TEST(SgxThread, AexScrubsComparisonFlags)
{
    // Regression: the AEX scrub clobbered the registers, the bound
    // registers, and the rip but left the comparison flags live — a
    // host could read the zf/sf/cf/of of the enclave's last cmp (a
    // secret-dependent branch condition) in the post-AEX state.
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    SgxThread thread(enclave);
    vm::CpuState secret = thread.cpu().state();
    secret.flags.zf = true;
    secret.flags.sf = true;
    secret.flags.cf = true;
    secret.flags.of = true;
    thread.cpu().set_state(secret);

    ASSERT_TRUE(thread.try_aex());
    const vm::Flags &host = thread.cpu().state().flags;
    EXPECT_FALSE(host.zf);
    EXPECT_FALSE(host.sf);
    EXPECT_FALSE(host.cf);
    EXPECT_FALSE(host.of);

    // ERESUME restores the real flags from the SSA.
    thread.resume();
    const vm::Flags &restored = thread.cpu().state().flags;
    EXPECT_TRUE(restored.zf);
    EXPECT_TRUE(restored.sf);
    EXPECT_TRUE(restored.cf);
    EXPECT_TRUE(restored.of);
}

TEST(SgxThread, RebindRefusedWhileSsaFrameIsOccupied)
{
    // Regression: rebinding a TCS whose single SSA frame holds an
    // interrupted context used to be a hard OCC_CHECK crash. It must
    // instead be a refused transition the orderliness monitor records
    // — an adversarial injection schedule degrades to a skipped
    // event, not a downed kernel.
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    vm::Cpu first(enclave.mem());
    vm::Cpu second(enclave.mem());
    SgxThread thread(enclave, first);

    auto &mon = TransitionMonitor::instance();
    uint64_t refusals0 = mon.refusals();
    uint64_t violations0 = mon.violations();

    ASSERT_TRUE(thread.try_aex());
    EXPECT_FALSE(thread.try_bind(second));
    EXPECT_EQ(&thread.cpu(), &first); // binding unchanged
    EXPECT_EQ(mon.refusals(), refusals0 + 1);

    thread.resume();
    EXPECT_TRUE(thread.try_bind(second));
    EXPECT_EQ(&thread.cpu(), &second);
    // Refusals are the defense working, never automaton violations.
    EXPECT_EQ(mon.violations(), violations0);
}

TEST(SgxThread, EnterRefusedOnOccupiedSsaFrame)
{
    // The SmashEx rule: with NSSA=1 an EENTER while the SSA frame is
    // occupied has no frame left to take an exception in, so it must
    // fail with an error — never be silently serviced.
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    SgxThread thread(enclave); // constructed executing inside
    thread.aex();
    Status blocked = thread.enter();
    ASSERT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.code(), ErrorCode::kBusy);

    // Normal round trip once the frame drains: resume, leave, enter.
    thread.resume();
    ASSERT_TRUE(thread.leave().ok());
    EXPECT_EQ(thread.phase(), TcsPhase::kOutside);
    ASSERT_TRUE(thread.enter().ok());
    EXPECT_EQ(thread.phase(), TcsPhase::kInside);

    // And a busy TCS refuses a second entry even without an AEX.
    Status busy = thread.enter();
    ASSERT_FALSE(busy.ok());
    EXPECT_EQ(busy.code(), ErrorCode::kBusy);
}

TEST(Attestation, ReportsVerifyOnSamePlatformOnly)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    Bytes user_data = {1, 2, 3};
    Report report = enclave.create_report(user_data);
    EXPECT_TRUE(Enclave::verify_report(platform, report));

    // Tampered report fails.
    Report forged = report;
    forged.user_data[0] ^= 1;
    EXPECT_FALSE(Enclave::verify_report(platform, forged));
    Report remeasured = report;
    remeasured.measurement[5] ^= 1;
    EXPECT_FALSE(Enclave::verify_report(platform, remeasured));
}

/**
 * Regression: the report MAC must cover the *whole* identity, not just
 * measurement + user_data. With the old narrow MAC payload, a relay
 * could rewrite signer/attributes/svn on a genuine report (e.g. strip
 * the DEBUG bit to slip past a production policy) without tripping
 * verification — this test failed against that code.
 */
TEST(Attestation, ReportMacCoversEnclaveIdentity)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    EnclaveIdentity identity;
    identity.signer.fill(0x5A);
    identity.attributes = EnclaveIdentity::kAttrDebug;
    identity.isv_prod_id = 3;
    identity.isv_svn = 7;
    ASSERT_TRUE(enclave.set_identity(identity).ok());
    ASSERT_TRUE(enclave.init().ok());

    Report report = enclave.create_report({1, 2, 3});
    ASSERT_TRUE(Enclave::verify_report(platform, report));

    Report resigned = report;
    resigned.identity.signer[0] ^= 1;
    EXPECT_FALSE(Enclave::verify_report(platform, resigned));

    Report undebugged = report;
    undebugged.identity.attributes &= ~EnclaveIdentity::kAttrDebug;
    EXPECT_FALSE(Enclave::verify_report(platform, undebugged));

    Report reproduced = report;
    reproduced.identity.isv_prod_id ^= 1;
    EXPECT_FALSE(Enclave::verify_report(platform, reproduced));

    Report upleveled = report;
    upleveled.identity.isv_svn += 1;
    EXPECT_FALSE(Enclave::verify_report(platform, upleveled));
}

/**
 * Regression: create_report used to *silently truncate* user_data past
 * 64 bytes, so two inputs differing only beyond byte 64 produced
 * byte-identical reports — a caller binding a long transcript got a
 * report that vouched for infinitely many transcripts. Long inputs now
 * bind their SHA-256 digest instead (and bind_user_data exposes the
 * exact mapping so verifiers can recompute it).
 */
TEST(Attestation, LongUserDataBindsDigestNotTruncation)
{
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        enclave.add_pages(kBase, vm::kPageSize, vm::kPermRX).ok());
    ASSERT_TRUE(enclave.init().ok());

    Bytes long_a(100, 0xAA);
    Bytes long_b = long_a;
    long_b[80] ^= 1; // differs only past the old 64-byte cutoff

    Report report_a = enclave.create_report(long_a);
    Report report_b = enclave.create_report(long_b);
    EXPECT_NE(report_a.user_data, report_b.user_data);
    EXPECT_EQ(report_a.user_data, Enclave::bind_user_data(long_a));
    EXPECT_TRUE(Enclave::verify_report(platform, report_a));

    // Short inputs still bind verbatim, zero-padded.
    Bytes short_input = {9, 8, 7};
    Report short_report = enclave.create_report(short_input);
    std::array<uint8_t, 64> expect{};
    expect[0] = 9;
    expect[1] = 8;
    expect[2] = 7;
    EXPECT_EQ(short_report.user_data, expect);

    // Exactly 64 bytes is the verbatim/digest boundary: still verbatim.
    Bytes exact(64, 0x11);
    EXPECT_EQ(enclave.create_report(exact).user_data,
              Enclave::bind_user_data(exact));
    std::array<uint8_t, 64> verbatim;
    std::copy(exact.begin(), exact.end(), verbatim.begin());
    EXPECT_EQ(Enclave::bind_user_data(exact), verbatim);
}

TEST(Enclave, GoldenMeasurement)
{
    // Pins MRENCLAVE of a fixed enclave: the ECREATE header, EADD of
    // three pages whose content ends mid-page (content page, zero
    // tail, whole zero page), then a reserve. Any change to the
    // measurement format or to the SHA-256 implementation underneath
    // shows up here.
    Platform platform;
    Enclave enclave(platform, kBase, 1 << 20);
    Bytes content(5000);
    for (size_t i = 0; i < content.size(); ++i) {
        content[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    ASSERT_TRUE(enclave
                    .add_pages(kBase, 3 * vm::kPageSize, vm::kPermRX,
                               content)
                    .ok());
    ASSERT_TRUE(enclave.measure_reserved(5 * vm::kPageSize).ok());
    ASSERT_TRUE(enclave.init().ok());
    EXPECT_EQ(to_hex(enclave.measurement().data(),
                     enclave.measurement().size()),
              "3cb3360941148d526a63480765f601b1"
              "095db1c29b1c3cbb3a7ae7658db3cb97");

    // A reserve longer than one batch of records, starting off a
    // block boundary (value computed independently from the format).
    Enclave long_reserve(platform, kBase, 1 << 20);
    ASSERT_TRUE(
        long_reserve.add_pages(kBase, vm::kPageSize, vm::kPermRW).ok());
    ASSERT_TRUE(long_reserve.measure_reserved(130 * vm::kPageSize).ok());
    ASSERT_TRUE(long_reserve.init().ok());
    EXPECT_EQ(to_hex(long_reserve.measurement().data(),
                     long_reserve.measurement().size()),
              "f2a861c8b8e4b8370747be358e7700fc"
              "ae504233797930cc2d0df4027221d635");
}

TEST(Enclave, ZeroReserveMatchesExplicitZeroPages)
{
    // measure_reserved costs the same cycles per page as adding
    // explicit zero pages, but it is not measurement-compatible with
    // them: each reserved page is measured under an LE64(~0) reserve
    // marker in place of its address. Its measurement must still be
    // deterministic.
    Platform p1, p2;
    Enclave e1(p1, kBase, 1 << 20);
    uint64_t before1 = p1.clock().cycles();
    ASSERT_TRUE(e1.measure_reserved(16 * vm::kPageSize).ok());
    uint64_t cost1 = p1.clock().cycles() - before1;

    Enclave e2(p2, kBase, 1 << 20);
    uint64_t before2 = p2.clock().cycles();
    ASSERT_TRUE(
        e2.add_pages(kBase, 16 * vm::kPageSize, vm::kPermRW).ok());
    uint64_t cost2 = p2.clock().cycles() - before2;
    EXPECT_EQ(cost1, cost2);

    Platform p3;
    Enclave e3(p3, kBase, 1 << 20);
    ASSERT_TRUE(e3.measure_reserved(16 * vm::kPageSize).ok());
    ASSERT_TRUE(e1.init().ok());
    ASSERT_TRUE(e2.init().ok());
    ASSERT_TRUE(e3.init().ok());
    EXPECT_EQ(e1.measurement(), e3.measurement());
    EXPECT_NE(e1.measurement(), e2.measurement());
}

} // namespace
} // namespace occlum::sgx
