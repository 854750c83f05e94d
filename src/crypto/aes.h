/**
 * @file
 * AES-128 block cipher and CTR-mode stream encryption (FIPS 197 /
 * SP 800-38A), implemented from scratch.
 *
 * The S-box is derived at static-initialization time from the GF(2^8)
 * multiplicative inverse and the affine transform, which removes the
 * risk of a typo in a 256-entry literal table. The four encryption
 * T-tables (SubBytes+ShiftRows+MixColumns folded into 32-bit lookups,
 * the standard software-AES formulation) are derived from that same
 * S-box, so the fast path shares the reference path's provenance.
 * CTR mode processes four counter blocks per iteration and XORs the
 * keystream word-wise. The byte-wise scalar implementation is kept as
 * a reference path, selected by the crypto-wide reference mode
 * (crypto/mode.h: the OCCLUM_CRYPTO_REFERENCE environment variable or
 * set_reference_mode()); both paths are asserted bit-identical in
 * tests.
 *
 * CTR mode is used by the encrypted file system and by the EIP
 * baseline's encrypted IPC streams. Tested against FIPS 197 and
 * SP 800-38A vectors.
 */
#ifndef OCCLUM_CRYPTO_AES_H
#define OCCLUM_CRYPTO_AES_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "base/bytes.h"
#include "crypto/hmac.h"

namespace occlum::crypto {

/** AES-128 with a fixed expanded key schedule. */
class Aes128
{
  public:
    explicit Aes128(const Key128 &key);

    /** Encrypt one 16-byte block in place (out may alias in). */
    void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;

    /**
     * CTR-mode keystream XOR: encrypts or decrypts (the operation is
     * symmetric). The counter block is iv (96-bit nonce) || 32-bit
     * big-endian block counter starting at `counter0` (wrapping mod
     * 2^32, per SP 800-38A's incrementing function on 32 bits).
     */
    void ctr_crypt(const std::array<uint8_t, 12> &iv, uint32_t counter0,
                   const uint8_t *in, uint8_t *out, size_t len) const;

    Bytes
    ctr_crypt(const std::array<uint8_t, 12> &iv, uint32_t counter0,
              const Bytes &in) const
    {
        Bytes out(in.size());
        ctr_crypt(iv, counter0, in.data(), out.data(), in.size());
        return out;
    }

  private:
    void encrypt_block_tt(const uint8_t in[16], uint8_t out[16]) const;
    void encrypt_block_ref(const uint8_t in[16], uint8_t out[16]) const;

    std::array<uint32_t, 44> round_keys_;
};

} // namespace occlum::crypto

#endif // OCCLUM_CRYPTO_AES_H
