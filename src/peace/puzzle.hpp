// Juels-Brainard client puzzles (the paper's DoS countermeasure, Sec. V.A):
// solving requires a brute-force search over a hash preimage space whose
// size the router controls via `difficulty_bits`; verification is a single
// hash. Routers attach a challenge to beacons while under suspected attack
// and only commit to expensive group-signature verification once a valid
// solution accompanies the access request.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace peace::proto {

struct PuzzleChallenge {
  Bytes server_nonce;            // fresh per beacon period
  std::uint8_t difficulty_bits = 0;  // required leading zero bits

  static void fields(auto& io, auto& s) {
    io(s.server_nonce, s.difficulty_bits);
  }
  Bytes to_bytes() const;
  static PuzzleChallenge from_bytes(BytesView data);
  bool operator==(const PuzzleChallenge&) const = default;
};

struct PuzzleSolution {
  Bytes server_nonce;  // echoes the challenge it answers
  std::uint64_t solution = 0;

  static void fields(auto& io, auto& s) { io(s.server_nonce, s.solution); }
  Bytes to_bytes() const;
  static PuzzleSolution from_bytes(BytesView data);
  bool operator==(const PuzzleSolution&) const = default;
};

/// Creates a challenge with `difficulty_bits` leading zero bits required.
PuzzleChallenge make_puzzle(BytesView server_nonce,
                            std::uint8_t difficulty_bits);

/// Brute-force search (expected 2^difficulty_bits hash evaluations); binds
/// the work to `client_binding` (e.g. the client's DH share) so solutions
/// cannot be replayed for other requests.
PuzzleSolution solve_puzzle(const PuzzleChallenge& challenge,
                            BytesView client_binding);

/// O(1) verification.
bool verify_puzzle(const PuzzleChallenge& challenge,
                   const PuzzleSolution& solution, BytesView client_binding);

/// Expected number of hash evaluations to solve at this difficulty.
double puzzle_expected_work(std::uint8_t difficulty_bits);

}  // namespace peace::proto
