// ECDSA over the BN254 G1 curve. Fills the role of the paper's ECDSA-160:
// mesh-router certificates, signed beacons, CRL/URL signatures, and the
// non-repudiation receipts exchanged during setup. Same algorithm, larger
// (254-bit) parameter.
#pragma once

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"

namespace peace::curve {

struct EcdsaSignature {
  Fr r;
  Fr s;

  /// r || s; nested in a field list the signature is embedded raw.
  static constexpr std::size_t kWireSize = 2 * kFrSize;
  static void fields(auto& io, auto& sig) { io(sig.r, sig.s); }
  Bytes to_bytes() const;
  static EcdsaSignature from_bytes(BytesView data);
  bool operator==(const EcdsaSignature&) const = default;
};

constexpr std::size_t kEcdsaSignatureSize = EcdsaSignature::kWireSize;

class EcdsaKeyPair {
 public:
  /// Generates a fresh key pair.
  static EcdsaKeyPair generate(crypto::Drbg& rng);
  /// Reconstructs from a stored secret scalar.
  static EcdsaKeyPair from_secret(const Fr& secret);

  const G1& public_key() const { return public_key_; }
  const Fr& secret_key() const { return secret_; }

  EcdsaSignature sign(BytesView message, crypto::Drbg& rng) const;

 private:
  Fr secret_;
  G1 public_key_;
};

bool ecdsa_verify(const G1& public_key, BytesView message,
                  const EcdsaSignature& sig);

/// Uniform non-zero scalar.
Fr random_fr(crypto::Drbg& rng);
/// Uniform scalar including zero.
Fr random_fr_any(crypto::Drbg& rng);

}  // namespace peace::curve

namespace peace {

/// Field-list leaf for state images: a key pair is stored as its secret
/// scalar and rebuilt with from_secret.
void put(Writer& w, const curve::EcdsaKeyPair& k);
void get(Reader& r, curve::EcdsaKeyPair& k);

}  // namespace peace
