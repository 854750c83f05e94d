#include "crypto/sha256.h"

#include <cstring>

#include "base/log.h"
#include "crypto/mode.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define OCC_SHA256_X86 1
#endif

namespace occlum::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

inline uint32_t
big_sigma0(uint32_t x)
{
    return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
}

inline uint32_t
big_sigma1(uint32_t x)
{
    return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
}

inline uint32_t
small_sigma0(uint32_t x)
{
    return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}

inline uint32_t
small_sigma1(uint32_t x)
{
    return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}

inline void
compress_one(uint32_t state[8], const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t(block[4 * i]) << 24) |
               (uint32_t(block[4 * i + 1]) << 16) |
               (uint32_t(block[4 * i + 2]) << 8) |
               uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; i += 2) {
        w[i] = w[i - 16] + small_sigma0(w[i - 15]) + w[i - 7] +
               small_sigma1(w[i - 2]);
        w[i + 1] = w[i - 15] + small_sigma0(w[i - 14]) + w[i - 6] +
                   small_sigma1(w[i - 1]);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    // One round with the working variables permuted in place of the
    // h=g; g=f; ... rotation chain; eight of these bring the names
    // back into position, so the loop is unrolled 8 rounds per step.
#define OCC_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                     \
    do {                                                                \
        uint32_t t1 = h + big_sigma1(e) + ((e & f) ^ (~e & g)) +        \
                      kK[i] + w[i];                                     \
        uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));    \
        d += t1;                                                        \
        h = t1 + t2;                                                    \
    } while (0)

    for (int i = 0; i < 64; i += 8) {
        OCC_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
        OCC_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
        OCC_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
        OCC_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
        OCC_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
        OCC_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
        OCC_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
        OCC_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
#undef OCC_SHA256_ROUND

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

/** The portable kernel: FIPS 180-4 §6.2.2, one block at a time. */
void
compress_scalar(uint32_t state[8], const uint8_t *blocks, size_t n)
{
    for (; n > 0; --n, blocks += 64) {
        compress_one(state, blocks);
    }
}

#ifdef OCC_SHA256_X86

/**
 * The SHA-NI kernel. State lives in two registers as ABEF/CDGH, the
 * layout sha256rnds2 wants; each quad-round adds four K constants to
 * four schedule words and runs two rnds2 (two rounds each). The
 * schedule keeps W[t..t+3] in a rolling window of four registers:
 * msg1 adds sigma0 terms for the quad three steps ahead, and msg2
 * finishes the next quad with the W[t-7] words and sigma1.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
compress_shani(uint32_t state[8], const uint8_t *blocks, size_t n)
{
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bull, 0x0405060700010203ull);
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xb1);     // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1b);       // EFGH
    __m128i s0 = _mm_alignr_epi8(tmp, s1, 8); // ABEF
    s1 = _mm_blend_epi16(s1, tmp, 0xf0);      // CDGH

    for (; n > 0; --n, blocks += 64) {
        const __m128i abef = s0, cdgh = s1;
        const __m128i *in = reinterpret_cast<const __m128i *>(blocks);
        __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
        __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
        __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
        __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
        __m128i msg;

        // Quad-round g over the window (cur, prev, next): for g in
        // 3..14, msg2 finishes the schedule words of quad g+1; for g
        // in 1..12, msg1 starts those of quad g+3 in prev's register.
#define OCC_SHA256_QUAD(g, cur, prev, next)                               \
    do {                                                                  \
        msg = _mm_add_epi32(cur, _mm_loadu_si128(                         \
                                     reinterpret_cast<const __m128i *>(   \
                                         &kK[4 * (g)])));                 \
        s1 = _mm_sha256rnds2_epu32(s1, s0, msg);                          \
        if ((g) >= 3 && (g) <= 14) {                                      \
            next = _mm_sha256msg2_epu32(                                  \
                _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur); \
        }                                                                 \
        msg = _mm_shuffle_epi32(msg, 0x0e);                               \
        s0 = _mm_sha256rnds2_epu32(s0, s1, msg);                          \
        if ((g) >= 1 && (g) <= 12) {                                      \
            prev = _mm_sha256msg1_epu32(prev, cur);                       \
        }                                                                 \
    } while (0)

        OCC_SHA256_QUAD(0, w0, w3, w1);
        OCC_SHA256_QUAD(1, w1, w0, w2);
        OCC_SHA256_QUAD(2, w2, w1, w3);
        OCC_SHA256_QUAD(3, w3, w2, w0);
        OCC_SHA256_QUAD(4, w0, w3, w1);
        OCC_SHA256_QUAD(5, w1, w0, w2);
        OCC_SHA256_QUAD(6, w2, w1, w3);
        OCC_SHA256_QUAD(7, w3, w2, w0);
        OCC_SHA256_QUAD(8, w0, w3, w1);
        OCC_SHA256_QUAD(9, w1, w0, w2);
        OCC_SHA256_QUAD(10, w2, w1, w3);
        OCC_SHA256_QUAD(11, w3, w2, w0);
        OCC_SHA256_QUAD(12, w0, w3, w1);
        OCC_SHA256_QUAD(13, w1, w0, w2);
        OCC_SHA256_QUAD(14, w2, w1, w3);
        OCC_SHA256_QUAD(15, w3, w2, w0);
#undef OCC_SHA256_QUAD

        s0 = _mm_add_epi32(s0, abef);
        s1 = _mm_add_epi32(s1, cdgh);
    }

    tmp = _mm_shuffle_epi32(s0, 0x1b);       // FEBA
    s1 = _mm_shuffle_epi32(s1, 0xb1);        // DCHG
    s0 = _mm_blend_epi16(tmp, s1, 0xf0);     // DCBA
    s1 = _mm_alignr_epi8(s1, tmp, 8);        // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), s0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), s1);
}

bool
detect_sha_extensions()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
        return false;
    }
    bool ssse3 = (ecx & bit_SSSE3) != 0;
    bool sse41 = (ecx & bit_SSE4_1) != 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        return false;
    }
    bool sha = (ebx & (1u << 29)) != 0;
    return sha && ssse3 && sse41;
}

#else

bool
detect_sha_extensions()
{
    return false;
}

#endif

/** cpuid is consulted once; reference mode is honoured per call. */
const bool g_sha_extensions = detect_sha_extensions();

} // namespace

void
Sha256::reset()
{
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
    buffered_ = 0;
    total_len_ = 0;
}

Sha256Midstate
Sha256::midstate() const
{
    OCC_CHECK_MSG(buffered_ == 0,
                  "midstate only exists on a 64-byte block boundary");
    Sha256Midstate m;
    for (int i = 0; i < 8; ++i) {
        m.state[i] = state_[i];
    }
    m.total_len = total_len_;
    return m;
}

void
Sha256::resume(const Sha256Midstate &m)
{
    for (int i = 0; i < 8; ++i) {
        state_[i] = m.state[i];
    }
    buffered_ = 0;
    total_len_ = m.total_len;
}

const Sha256Midstate &
Sha256::initial_midstate()
{
    static const Sha256Midstate m = [] {
        Sha256 h;
        return h.midstate();
    }();
    return m;
}

bool
Sha256::hardware_supported()
{
    return g_sha_extensions;
}

void
Sha256::compress_blocks(const uint8_t *data, size_t n)
{
#ifdef OCC_SHA256_X86
    if (g_sha_extensions && !reference_mode()) {
        compress_shani(state_, data, n);
        return;
    }
#endif
    compress_scalar(state_, data, n);
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    if (len == 0) {
        return; // an empty Bytes may hand us data == nullptr
    }
    total_len_ += len;
    // Top up a partially filled buffer first.
    if (buffered_ != 0) {
        size_t take = std::min(len, sizeof(buffer_) - buffered_);
        std::memcpy(buffer_ + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ == sizeof(buffer_)) {
            compress_blocks(buffer_, 1);
            buffered_ = 0;
        }
    }
    // Full blocks straight from the input, no staging copy, in one
    // kernel call.
    size_t blocks = len / sizeof(buffer_);
    if (blocks > 0) {
        compress_blocks(data, blocks);
        data += blocks * sizeof(buffer_);
        len -= blocks * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        buffered_ = len;
    }
}

Sha256Digest
Sha256::finish()
{
    uint64_t bit_len = total_len_ * 8;
    // Pad in place: 0x80, zeros to 56 mod 64, then the bit length.
    // Spills into a second compression when fewer than 9 bytes of the
    // current block remain.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
        compress_blocks(buffer_, 1);
        buffered_ = 0;
    }
    std::memset(buffer_ + buffered_, 0, 56 - buffered_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress_blocks(buffer_, 1);
    buffered_ = 0;

    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
    }
    return out;
}

} // namespace occlum::crypto
