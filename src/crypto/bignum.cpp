#include "crypto/bignum.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace snipe::crypto {

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

BigUInt::BigUInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_hex(const std::string& hex) {
  BigUInt out;
  for (char c : hex) {
    int v = hex_value(c);
    if (v < 0) throw std::invalid_argument("bad hex digit in bignum");
    // out = out * 16 + v
    std::uint64_t carry = static_cast<std::uint64_t>(v);
    for (auto& limb : out.limbs_) {
      std::uint64_t cur = (std::uint64_t{limb} << 4) | carry;
      limb = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.normalize();
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4)
      out.push_back(digits[(limbs_[i] >> shift) & 0xf]);
  }
  auto first = out.find_first_not_of('0');
  return out.substr(first);
}

BigUInt BigUInt::from_bytes(const std::vector<std::uint8_t>& be) {
  BigUInt out;
  std::size_t n = be.size();
  out.limbs_.resize((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t byte_index = n - 1 - i;  // little-endian byte position
    out.limbs_[i / 4] |= std::uint32_t{be[byte_index]} << (8 * (i % 4));
  }
  out.normalize();
  return out;
}

std::vector<std::uint8_t> BigUInt::to_bytes() const {
  std::vector<std::uint8_t> out;
  if (is_zero()) return out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 24));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 16));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 8));
    out.push_back(static_cast<std::uint8_t>(limbs_[i]));
  }
  auto first = std::find_if(out.begin(), out.end(), [](std::uint8_t b) { return b != 0; });
  out.erase(out.begin(), first);
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (is_zero()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigUInt::compare(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt BigUInt::add(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUInt BigUInt::sub(const BigUInt& a, const BigUInt& b) {
  assert(compare(a, b) >= 0 && "BigUInt::sub requires a >= b");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow -
                        (i < b.limbs_.size() ? b.limbs_[i] : 0);
    if (diff < 0) {
      diff += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::mul(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      std::uint64_t cur = std::uint64_t{a.limbs_[i]} * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] = static_cast<std::uint32_t>(carry);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt out = *this;
    return out;
  }
  std::size_t limb_shift = bits / 32, bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(
          std::uint64_t{limbs_[i]} >> (32 - bit_shift));
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::shifted_right(std::size_t bits) const {
  std::size_t limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= static_cast<std::uint32_t>(std::uint64_t{limbs_[i + limb_shift + 1]}
                                                  << (32 - bit_shift));
  }
  out.normalize();
  return out;
}

void BigUInt::divmod(const BigUInt& a, const BigUInt& b, BigUInt& q, BigUInt& r) {
  assert(!b.is_zero() && "division by zero");
  if (compare(a, b) < 0) {
    q = BigUInt();
    r = a;
    return;
  }
  // Binary long division: shift the divisor up to align with the dividend's
  // top bit, then subtract down.  O(bits * limbs) — fine at RSA test sizes.
  std::size_t shift = a.bit_length() - b.bit_length();
  BigUInt divisor = b.shifted_left(shift);
  BigUInt quotient;
  quotient.limbs_.assign((shift / 32) + 1, 0);
  BigUInt rem = a;
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (compare(rem, divisor) >= 0) {
      rem = sub(rem, divisor);
      quotient.limbs_[i / 32] |= std::uint32_t{1} << (i % 32);
    }
    divisor = divisor.shifted_right(1);
  }
  quotient.normalize();
  q = std::move(quotient);
  r = std::move(rem);
}

BigUInt BigUInt::mod(const BigUInt& a, const BigUInt& m) {
  BigUInt q, r;
  divmod(a, m, q, r);
  return r;
}

BigUInt BigUInt::mod_pow(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  assert(!m.is_zero());
  if (m == BigUInt(1)) return BigUInt();
  BigUInt result(1);
  BigUInt b = mod(base, m);
  std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = mod(mul(result, b), m);
    b = mod(mul(b, b), m);
  }
  return result;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid, tracking only the coefficient of `a`.  Coefficients can
  // go negative, so keep them as (magnitude, sign) pairs.
  BigUInt r0 = m, r1 = mod(a, m);
  BigUInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    BigUInt q, r2;
    divmod(r0, r1, q, r2);
    // t2 = t0 - q * t1  (signed)
    BigUInt qt1 = mul(q, t1);
    BigUInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: subtraction may flip the sign.
      if (compare(t0, qt1) >= 0) {
        t2 = sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = add(t0, qt1);
      t2_neg = t0_neg;
    }
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
    r0 = std::move(r1);
    r1 = std::move(r2);
  }
  if (r0 != BigUInt(1)) return BigUInt();  // not invertible
  if (t0_neg) return sub(m, mod(t0, m));
  return mod(t0, m);
}

BigUInt BigUInt::random_bits(Rng& rng, std::size_t bits) {
  assert(bits >= 2);
  BigUInt out;
  out.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : out.limbs_) limb = static_cast<std::uint32_t>(rng.next_u64());
  std::size_t top_bit = (bits - 1) % 32;
  out.limbs_.back() &= (top_bit == 31) ? ~std::uint32_t{0}
                                       : ((std::uint32_t{1} << (top_bit + 1)) - 1);
  out.limbs_.back() |= std::uint32_t{1} << top_bit;
  out.normalize();
  return out;
}

bool BigUInt::is_probable_prime(const BigUInt& n, Rng& rng, int rounds) {
  if (n < BigUInt(2)) return false;
  static const std::uint64_t small_primes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                               23, 29, 31, 37, 41, 43, 47};
  for (std::uint64_t p : small_primes) {
    BigUInt bp(p);
    if (n == bp) return true;
    if (mod(n, bp).is_zero()) return false;
  }
  // Write n-1 = d * 2^s with d odd.
  BigUInt n_minus_1 = sub(n, BigUInt(1));
  BigUInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2]: draw bit_length-1 bits and reduce.
    BigUInt a = mod(random_bits(rng, n.bit_length()), sub(n, BigUInt(3)));
    a = add(a, BigUInt(2));
    BigUInt x = mod_pow(a, d, n);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = mod(mul(x, x), n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigUInt BigUInt::random_prime(Rng& rng, std::size_t bits, int rounds) {
  while (true) {
    BigUInt candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = add(candidate, BigUInt(1));
    if (is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

}  // namespace snipe::crypto
