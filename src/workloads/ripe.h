/**
 * @file
 * The RIPE-style attack binaries of the security benchmark (paper
 * §9.3). Each attack is a *verifier-clean* program with a deliberate
 * vulnerability: control data in D is corrupted with stores that are
 * legal under the memory-access policy, then control flow consumes
 * it — RIPE's model of exploiting a benign-but-buggy program.
 */
#ifndef OCCLUM_WORKLOADS_RIPE_H
#define OCCLUM_WORKLOADS_RIPE_H

#include <string>
#include <vector>

#include "oelf/oelf.h"

namespace occlum::workloads {

/** Attack kinds, in the benchmark's table order. */
const std::vector<std::string> &ripe_attack_names();

/**
 * Build one attack image. Instrumented variants must pass the
 * verifier; plain variants use the same logic without guards.
 */
oelf::Image ripe_attack(const std::string &kind, bool instrumented);

} // namespace occlum::workloads

#endif // OCCLUM_WORKLOADS_RIPE_H
