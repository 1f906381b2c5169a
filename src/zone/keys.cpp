#include "zone/keys.h"

#include "crypto/sha256.h"
#include "dns/wire_io.h"

namespace lookaside::zone {

ZoneKeys ZoneKeys::generate(std::size_t modulus_bits,
                            crypto::SplitMix64& rng) {
  auto shared = std::make_shared<Shared>(Shared{
      crypto::generate_rsa_keypair(modulus_bits, rng),
      crypto::generate_rsa_keypair(modulus_bits, rng),
      {},
      {},
      0,
      0,
  });
  shared->zsk_rdata = dns::DnskeyRdata{dns::DnskeyRdata::kFlagZoneKey, 3, 8,
                                       shared->zsk.public_key.to_wire()};
  shared->ksk_rdata = dns::DnskeyRdata{
      dns::DnskeyRdata::kFlagZoneKey | dns::DnskeyRdata::kFlagSep, 3, 8,
      shared->ksk.public_key.to_wire()};
  shared->zsk_tag = shared->zsk_rdata.key_tag();
  shared->ksk_tag = shared->ksk_rdata.key_tag();
  return ZoneKeys(std::move(shared));
}

dns::DsRdata make_ds(const dns::Name& owner, const dns::DnskeyRdata& dnskey) {
  dns::ByteWriter writer;
  writer.raw(owner.to_wire());
  dns::encode_rdata(dns::Rdata{dnskey}, writer);
  const crypto::Sha256::Digest digest = crypto::Sha256::digest(writer.bytes());
  return dns::DsRdata{dnskey.key_tag(), dnskey.algorithm, 2,
                      dns::Bytes(digest.begin(), digest.end())};
}

KeyPool::KeyPool(std::size_t pool_size, std::size_t modulus_bits,
                 std::uint64_t seed) {
  pool_.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    crypto::SplitMix64 rng(crypto::derive_seed(seed, i));
    pool_.push_back(ZoneKeys::generate(modulus_bits, rng));
  }
}

}  // namespace lookaside::zone
