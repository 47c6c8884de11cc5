// Arbitrary-precision unsigned integers, sized for RSA at test scale.
//
// The SNIPE security model (§4) rests on public-key signatures; rather than
// stub them we implement RSA over this bignum type.  Limbs are 32-bit,
// little-endian, always normalized (no high zero limbs).  Schoolbook
// multiplication and binary long division are plenty for the 256–1024 bit
// moduli the tests and benches use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace snipe::crypto {

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(std::uint64_t v);

  /// Parses lowercase/uppercase hex (no 0x prefix); empty string is zero.
  static BigUInt from_hex(const std::string& hex);
  /// Big-endian byte import/export (leading zeros stripped on import).
  static BigUInt from_bytes(const std::vector<std::uint8_t>& be);
  std::vector<std::uint8_t> to_bytes() const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  /// Three-way comparison: -1, 0, +1.
  static int compare(const BigUInt& a, const BigUInt& b);
  friend bool operator==(const BigUInt& a, const BigUInt& b) { return compare(a, b) == 0; }
  friend bool operator!=(const BigUInt& a, const BigUInt& b) { return compare(a, b) != 0; }
  friend bool operator<(const BigUInt& a, const BigUInt& b) { return compare(a, b) < 0; }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) { return compare(a, b) <= 0; }
  friend bool operator>(const BigUInt& a, const BigUInt& b) { return compare(a, b) > 0; }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) { return compare(a, b) >= 0; }

  static BigUInt add(const BigUInt& a, const BigUInt& b);
  /// Requires a >= b.
  static BigUInt sub(const BigUInt& a, const BigUInt& b);
  static BigUInt mul(const BigUInt& a, const BigUInt& b);
  /// Quotient and remainder; divisor must be nonzero.
  static void divmod(const BigUInt& a, const BigUInt& b, BigUInt& q, BigUInt& r);
  static BigUInt mod(const BigUInt& a, const BigUInt& m);

  BigUInt shifted_left(std::size_t bits) const;
  BigUInt shifted_right(std::size_t bits) const;

  /// (base ^ exp) mod m, square-and-multiply.  m must be nonzero.
  static BigUInt mod_pow(const BigUInt& base, const BigUInt& exp, const BigUInt& m);

  /// Greatest common divisor.
  static BigUInt gcd(BigUInt a, BigUInt b);

  /// Multiplicative inverse of a modulo m; returns zero if none exists.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

  /// Uniform value with exactly `bits` bits (top bit set).  bits >= 2.
  static BigUInt random_bits(Rng& rng, std::size_t bits);

  /// Miller–Rabin with `rounds` random bases.
  static bool is_probable_prime(const BigUInt& n, Rng& rng, int rounds = 24);

  /// Random odd prime with exactly `bits` bits.
  static BigUInt random_prime(Rng& rng, std::size_t bits, int rounds = 24);

 private:
  void normalize();
  std::vector<std::uint32_t> limbs_;
};

}  // namespace snipe::crypto
