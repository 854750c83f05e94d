/**
 * @file
 * The Occlum verifier (paper §5): an independent static checker that
 * decides whether an OELF binary complies with the MMDSFI security
 * policies, taking the (large, untrusted) toolchain out of the TCB.
 *
 * Four stages:
 *  1. Complete disassembly (paper Algorithm 1): every reachable
 *     instruction is recovered exactly, starting from the cfi_labels
 *     found by a byte scan; overlapping or undecodable reachable
 *     bytes reject the binary.
 *  2. Instruction-set verification: no dangerous instructions
 *     (SGX analogs, MPX mutation, state-smashing ops, ltrap).
 *  3. Control-transfer verification (paper Fig. 3): direct transfers
 *     target verified instruction starts that are neither register-
 *     indirect transfers nor the interior of a cfi_guard sequence;
 *     register-indirect transfers are immediately preceded by a
 *     cfi_guard; memory-indirect and return instructions are
 *     rejected (the toolchain rewrites `ret`).
 *  4. Memory-access verification (paper Fig. 4): an interprocedural-
 *     free, per-block dataflow range analysis in domain-relative
 *     coordinates proves every explicit access and every implicit
 *     stack access lands inside the guard-extended data region
 *     [D.begin - G, D.end + G). Direct-memory-offset and vector-SIB
 *     accesses are rejected categorically.
 *
 * A binary that passes all stages may be signed with the verifier's
 * key; the Occlum LibOS loader only accepts signed images (paper §6).
 */
#ifndef OCCLUM_VERIFIER_VERIFIER_H
#define OCCLUM_VERIFIER_VERIFIER_H

#include <map>
#include <string>

#include "crypto/hmac.h"
#include "isa/isa.h"
#include "oelf/oelf.h"

namespace occlum::verifier {

/** Outcome of a verification run. */
struct VerifyReport {
    bool ok = false;
    int failed_stage = 0;   // 1..4, 0 when ok
    std::string reason;     // human-readable failure description
    uint64_t fail_address = 0; // offending instruction (domain-relative)

    // Diagnostics.
    uint64_t reachable_instructions = 0;
    uint64_t cfi_labels = 0;
    uint64_t checked_accesses = 0;   // proven by range analysis
    uint64_t guarded_accesses = 0;   // proven via an explicit mem_guard

    static VerifyReport
    fail(int stage, std::string why, uint64_t address = 0)
    {
        VerifyReport r;
        r.failed_stage = stage;
        r.reason = std::move(why);
        r.fail_address = address;
        return r;
    }
};

/** The verifier: stateless apart from its signing key. */
class Verifier
{
  public:
    explicit Verifier(crypto::Key128 signing_key)
        : key_(signing_key)
    {}

    /** Run all four stages. */
    VerifyReport verify(const oelf::Image &image) const;

    /** verify() and, on success, return the image signed. Takes the
     *  image by value so a caller done with it can move it in. */
    Result<oelf::Image> verify_and_sign(oelf::Image image) const;

    const crypto::Key128 &key() const { return key_; }

  private:
    crypto::Key128 key_;
};

} // namespace occlum::verifier

#endif // OCCLUM_VERIFIER_VERIFIER_H
