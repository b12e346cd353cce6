// The interleaved CBC-encrypt kernel (block_modes.hpp, cbc_encrypt_chains)
// for single DES, compiled under the kernel flags (crypto/CMakeLists.txt)
// with the round it interleaves (des_round.hpp) inlined.
#include "crypto/block_modes.hpp"
#include "crypto/des_round.hpp"

namespace fbs::crypto {

template void cbc_encrypt_chains<Des>(std::span<const CbcChain<Des>>);

}  // namespace fbs::crypto
