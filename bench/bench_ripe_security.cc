/**
 * @file
 * The RIPE-style security benchmark (paper §9.3): buffer-overflow
 * exploitation payloads run against the Graphene-like EIP baseline
 * (RWX page pool, no intra-enclave isolation) and against Occlum
 * (MMDSFI + verifier + page permissions).
 *
 * The attack binaries live in workloads/ripe.h.
 *
 * Observable outcomes (from the kernel's post-mortem records):
 *   HIJACKED  — attacker-chosen instructions executed (our shellcode
 *               runs `hlt`, which verified code can never contain);
 *   BLOCKED   — the attempt died on #BR (cfi_guard) or a page fault;
 *   CONFINED  — the transfer landed on a legitimate cfi_label and
 *               ran, but stayed inside the SIP (return-to-libc).
 *
 * Paper (stack protection off): 36 code-injection, 2 ROP, and 16
 * return-to-libc attacks succeed on Graphene-SGX; Occlum stops all
 * injection and ROP, while return-to-libc remains possible but
 * cannot break SIP isolation.
 */
#include "bench/bench_util.h"

#include "verifier/verifier.h"
#include "workloads/ripe.h"

using namespace occlum;

namespace {

std::string
classify(const oskit::DeathRecord &record)
{
    switch (record.cause) {
      case oskit::DeathCause::kPrivileged:
        return "HIJACKED";
      case oskit::DeathCause::kFault:
        return "BLOCKED";
      case oskit::DeathCause::kExited:
        return record.code == 7 ? "CONFINED (ret2libc ran)"
                                : "no effect";
      default:
        return "?";
    }
}

} // namespace

int
main()
{
    verifier::Verifier verifier(workloads::bench_verifier_key());

    Table table("RIPE-style attack suite (paper Sec 9.3)");
    table.set_header({"attack", "Graphene-like (EIP)", "Occlum",
                      "verifier"});

    int occlum_hijacks = 0;
    int eip_hijacks = 0;
    for (const std::string &attack : workloads::ripe_attack_names()) {
        // ---- EIP flavour: plain code, RWX pool -------------------
        oelf::Image plain = workloads::ripe_attack(attack, false);
        sgx::Platform eip_platform;
        host::HostFileStore eip_files;
        eip_files.put("attack", plain.serialize());
        baseline::EipSystem eip_sys(eip_platform, eip_files, {});
        auto eip_pid = eip_sys.spawn("attack", {"attack"});
        OCC_CHECK_MSG(eip_pid.ok(), eip_pid.error().message);
        eip_sys.set_quantum(200000);
        for (int round = 0; round < 64 && !eip_sys.all_exited();
             ++round) {
            eip_sys.step_round();
        }
        std::string eip_result =
            eip_sys.all_exited()
                ? classify(eip_sys.death_record(eip_pid.value()).value())
                : "no effect (spinning)";
        if (eip_result == "HIJACKED") ++eip_hijacks;

        // ---- Occlum flavour: must pass the verifier ---------------
        oelf::Image guarded = workloads::ripe_attack(attack, true);
        auto signed_image = verifier.verify_and_sign(guarded);
        std::string verdict = signed_image.ok()
                                  ? "accepted"
                                  : "REJECTED: " +
                                        signed_image.error().message;
        std::string occ_result = "-";
        if (signed_image.ok()) {
            sgx::Platform occ_platform;
            host::HostFileStore occ_files;
            occ_files.put("attack", signed_image.value().serialize());
            libos::OcclumSystem occ_sys(occ_platform, occ_files,
                                        bench::occlum_config());
            auto occ_pid = occ_sys.spawn("attack", {"attack"});
            OCC_CHECK_MSG(occ_pid.ok(), occ_pid.error().message);
            occ_sys.set_quantum(200000);
            for (int round = 0; round < 64 && !occ_sys.all_exited();
                 ++round) {
                occ_sys.step_round();
            }
            occ_result =
                occ_sys.all_exited()
                    ? classify(
                          occ_sys.death_record(occ_pid.value()).value())
                    : "no effect (spinning)";
            if (occ_result == "HIJACKED") ++occlum_hijacks;
        }
        table.add_row({attack, eip_result, occ_result, verdict});
    }
    table.print();
    std::printf("\nhijacks: Graphene-like %d/7, Occlum %d/7\n",
                eip_hijacks, occlum_hijacks);
    std::printf("Paper: Graphene falls to code injection + ROP; Occlum "
                "blocks all of them; return-to-libc runs but stays "
                "confined to the SIP.\n");
    bench::JsonReport report("ripe_security");
    report.add("eip", "hijacks", eip_hijacks);
    report.add("occlum", "hijacks", occlum_hijacks);
    report.add("total", "attacks",
               static_cast<double>(workloads::ripe_attack_names().size()));
    report.write();
    return occlum_hijacks == 0 ? 0 : 1;
}
