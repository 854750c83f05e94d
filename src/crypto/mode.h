/**
 * @file
 * Crypto-wide implementation switch.
 *
 * Every primitive in this module has a fast path and a scalar
 * reference path with bit-identical outputs: T-table AES vs byte-wise
 * AES, and SHA-NI SHA-256 (where the host has it) vs the scalar
 * compression function. Reference mode forces the scalar paths. Its
 * initial value honours the OCCLUM_CRYPTO_REFERENCE environment
 * variable; only wall-clock differs between the modes.
 */
#ifndef OCCLUM_CRYPTO_MODE_H
#define OCCLUM_CRYPTO_MODE_H

namespace occlum::crypto {

/** Force (true) or release (false) the scalar reference paths. */
void set_reference_mode(bool reference);
bool reference_mode();

} // namespace occlum::crypto

#endif // OCCLUM_CRYPTO_MODE_H
