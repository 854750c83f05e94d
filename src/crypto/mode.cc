#include "crypto/mode.h"

#include <cstdlib>

namespace occlum::crypto {

namespace {

bool
initial_reference_mode()
{
    const char *env = std::getenv("OCCLUM_CRYPTO_REFERENCE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool g_reference_mode = initial_reference_mode();

} // namespace

void
set_reference_mode(bool reference)
{
    g_reference_mode = reference;
}

bool
reference_mode()
{
    return g_reference_mode;
}

} // namespace occlum::crypto
