#include "peace/puzzle.hpp"

#include <cmath>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace peace::proto {

namespace {

bool has_leading_zero_bits(BytesView digest, unsigned bits) {
  unsigned full = bits / 8, rem = bits % 8;
  if (digest.size() < full + (rem ? 1 : 0)) return false;
  for (unsigned i = 0; i < full; ++i)
    if (digest[i] != 0) return false;
  if (rem != 0 && (digest[full] >> (8 - rem)) != 0) return false;
  return true;
}

Bytes puzzle_digest(BytesView server_nonce, BytesView client_binding,
                    std::uint64_t candidate) {
  Writer w;
  w.bytes(server_nonce);
  w.bytes(client_binding);
  w.u64(candidate);
  return crypto::Sha256::hash(w.data());
}

}  // namespace

Bytes PuzzleChallenge::to_bytes() const { return encode(*this); }
PuzzleChallenge PuzzleChallenge::from_bytes(BytesView data) {
  return decode<PuzzleChallenge>(data);
}

Bytes PuzzleSolution::to_bytes() const { return encode(*this); }
PuzzleSolution PuzzleSolution::from_bytes(BytesView data) {
  return decode<PuzzleSolution>(data);
}

PuzzleChallenge make_puzzle(BytesView server_nonce,
                            std::uint8_t difficulty_bits) {
  if (difficulty_bits > 40)
    throw Error("puzzle: difficulty too high to be solvable");
  return {Bytes(server_nonce.begin(), server_nonce.end()), difficulty_bits};
}

PuzzleSolution solve_puzzle(const PuzzleChallenge& challenge,
                            BytesView client_binding) {
  for (std::uint64_t candidate = 0;; ++candidate) {
    if (has_leading_zero_bits(
            puzzle_digest(challenge.server_nonce, client_binding, candidate),
            challenge.difficulty_bits)) {
      return {challenge.server_nonce, candidate};
    }
  }
}

bool verify_puzzle(const PuzzleChallenge& challenge,
                   const PuzzleSolution& solution, BytesView client_binding) {
  if (!ct_equal(challenge.server_nonce, solution.server_nonce)) return false;
  return has_leading_zero_bits(
      puzzle_digest(challenge.server_nonce, client_binding, solution.solution),
      challenge.difficulty_bits);
}

double puzzle_expected_work(std::uint8_t difficulty_bits) {
  return std::pow(2.0, difficulty_bits);
}

}  // namespace peace::proto
