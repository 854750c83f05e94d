#include "oelf/oelf.h"

#include <cstring>

#include "base/log.h"

namespace occlum::oelf {

namespace {

constexpr uint8_t kMagic[4] = {'O', 'E', 'L', 'F'};
constexpr uint32_t kVersion = 1;

/** Cursor for bounds-checked parsing. */
class Reader
{
  public:
    explicit Reader(const Bytes &raw) : raw_(raw) {}

    template <typename T>
    bool
    get(T &out)
    {
        if (pos_ + sizeof(T) > raw_.size()) return false;
        out = get_le<T>(raw_.data() + pos_);
        pos_ += sizeof(T);
        return true;
    }

    bool
    get_bytes(Bytes &out, size_t len)
    {
        if (pos_ + len > raw_.size()) return false;
        out.assign(raw_.begin() + pos_, raw_.begin() + pos_ + len);
        pos_ += len;
        return true;
    }

    bool
    get_string(std::string &out, size_t len)
    {
        if (pos_ + len > raw_.size()) return false;
        out.assign(raw_.begin() + pos_, raw_.begin() + pos_ + len);
        pos_ += len;
        return true;
    }

    size_t pos() const { return pos_; }

  private:
    const Bytes &raw_;
    size_t pos_ = 0;
};

/**
 * Everything serialize() writes ahead of the code segment. The
 * signature is written only when `with_signature` (and the image has
 * one); the content digest hashes the header without it.
 */
Bytes
header_bytes(const Image &image, bool with_signature)
{
    Bytes out;
    out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
    put_le<uint32_t>(out, kVersion);
    put_le<uint64_t>(out, image.entry_offset);
    put_le<uint64_t>(out, image.code.size());
    put_le<uint64_t>(out, image.data.size());
    put_le<uint64_t>(out, image.bss_size);
    put_le<uint64_t>(out, image.heap_size);
    put_le<uint64_t>(out, image.stack_size);
    put_le<uint64_t>(out, image.code_reserve);
    put_le<uint32_t>(out, image.flags);
    put_le<uint32_t>(out, static_cast<uint32_t>(image.symbols.size()));
    for (const auto &sym : image.symbols) {
        put_le<uint16_t>(out, static_cast<uint16_t>(sym.name.size()));
        out.insert(out.end(), sym.name.begin(), sym.name.end());
        put_le<uint64_t>(out, sym.offset);
    }
    bool sig = with_signature && image.has_signature;
    out.push_back(sig ? 1 : 0);
    if (sig) {
        out.insert(out.end(), image.signature.begin(), image.signature.end());
    }
    return out;
}

} // namespace

uint64_t
Image::find_symbol(const std::string &name) const
{
    for (const auto &sym : symbols) {
        if (sym.name == name) {
            return sym.offset;
        }
    }
    return ~0ull;
}

Bytes
Image::serialize() const
{
    Bytes out = header_bytes(*this, true);
    out.reserve(out.size() + code.size() + data.size());
    out.insert(out.end(), code.begin(), code.end());
    out.insert(out.end(), data.begin(), data.end());
    return out;
}

Result<Image>
Image::parse(const Bytes &raw)
{
    auto fail = [](const std::string &why) -> Result<Image> {
        return Error(ErrorCode::kNoExec, "OELF parse: " + why);
    };
    Reader r(raw);
    Bytes magic;
    if (!r.get_bytes(magic, 4) ||
        std::memcmp(magic.data(), kMagic, 4) != 0) {
        return fail("bad magic");
    }
    uint32_t version = 0;
    if (!r.get(version) || version != kVersion) {
        return fail("bad version");
    }
    Image img;
    uint64_t code_size = 0, data_size = 0;
    uint32_t sym_count = 0;
    if (!r.get(img.entry_offset) || !r.get(code_size) ||
        !r.get(data_size) || !r.get(img.bss_size) ||
        !r.get(img.heap_size) || !r.get(img.stack_size) ||
        !r.get(img.code_reserve) || !r.get(img.flags) ||
        !r.get(sym_count)) {
        return fail("truncated header");
    }
    if (sym_count > 100000) {
        return fail("absurd symbol count");
    }
    for (uint32_t i = 0; i < sym_count; ++i) {
        Symbol sym;
        uint16_t name_len = 0;
        if (!r.get(name_len) || !r.get_string(sym.name, name_len) ||
            !r.get(sym.offset)) {
            return fail("truncated symbol table");
        }
        img.symbols.push_back(std::move(sym));
    }
    uint8_t has_sig = 0;
    if (!r.get(has_sig)) {
        return fail("truncated signature flag");
    }
    img.has_signature = has_sig != 0;
    if (img.has_signature) {
        Bytes sig;
        if (!r.get_bytes(sig, img.signature.size())) {
            return fail("truncated signature");
        }
        std::copy(sig.begin(), sig.end(), img.signature.begin());
    }
    if (!r.get_bytes(img.code, code_size) ||
        !r.get_bytes(img.data, data_size)) {
        return fail("truncated segments");
    }
    if (img.entry_offset >= std::max<uint64_t>(code_size, 1)) {
        return fail("entry outside code");
    }
    return img;
}

crypto::Sha256Digest
Image::content_digest() const
{
    // Stream the serialized image with the signature blanked, so
    // signing is stable, without copying the image or its segments.
    crypto::Sha256 hasher;
    hasher.update(header_bytes(*this, false));
    hasher.update(code);
    hasher.update(data);
    return hasher.finish();
}

void
Image::sign(const crypto::Key128 &key)
{
    crypto::Sha256Digest digest = content_digest();
    signature = crypto::hmac_sha256(key.data(), key.size(), digest.data(),
                                    digest.size());
    has_signature = true;
}

bool
Image::check_signature(const crypto::Key128 &key) const
{
    if (!has_signature) {
        return false;
    }
    crypto::Sha256Digest digest = content_digest();
    crypto::Sha256Digest expect = crypto::hmac_sha256(
        key.data(), key.size(), digest.data(), digest.size());
    return crypto::digest_equal(expect, signature);
}

} // namespace occlum::oelf
