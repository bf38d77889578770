#include "lut.h"

#include <bit>
#include <cassert>

namespace hfpu {
namespace fpu {

using namespace fp;

namespace {

constexpr int kFieldShift = kFullMantissaBits - LookupTable::kOperandBits;

/** Top five fraction bits of an operand. */
inline uint32_t field5(uint32_t bits) { return fractionOf(bits) >> kFieldShift; }

/** Magnitude comparison key (valid for finite values). */
inline uint32_t magnitude(uint32_t bits) { return bits & 0x7fffffffu; }

inline bool
inTableDomain(uint32_t bits)
{
    return !isZeroBits(bits) && !isDenormalBits(bits) &&
        exponentOf(bits) != kExpMask;
}

} // namespace

LookupTable::LookupTable(RoundingMode mode, bool sub_bank)
    : mode_(mode), subBank_(sub_bank)
{
    for (uint32_t x = 0; x < 32; ++x) {
        for (uint32_t y = 0; y < 32; ++y) {
            const int idx = static_cast<int>((x << kOperandBits) | y);

            // Add bank: 1.x + 0.y, both over 32.
            {
                const uint32_t n = (32 + x) + y; // in [32, 94]
                if (n >= 64) {
                    bool carry2 = false;
                    const uint32_t mant = roundFraction(n - 64, 6, carry2);
                    assert(!carry2); // f <= 30/64, cannot round to 1.0
                    add_[idx] = static_cast<uint8_t>((1u << 5) | mant);
                } else {
                    add_[idx] = static_cast<uint8_t>(n - 32);
                }
            }

            // Subtract bank: 1.x - 0.y (exact; stores shift + mantissa).
            {
                const uint32_t n = (32 + x) - y; // in [1, 63]
                uint32_t shift, mant;
                if (n >= 32) {
                    shift = 0;
                    mant = n - 32;
                } else {
                    const int j = std::bit_width(n) - 1; // 0..4
                    shift = static_cast<uint32_t>(5 - j);
                    mant = (n << shift) - 32;
                }
                sub_[idx] = static_cast<uint8_t>((shift << 5) | mant);
            }

            // Multiply bank: (1.x) * (1.y).
            {
                const uint32_t p = (32 + x) * (32 + y); // [1024, 3969]
                uint32_t carry, mant;
                if (p >= 2048) {
                    carry = 1;
                    bool carry2 = false;
                    mant = roundFraction(p - 2048, 11, carry2);
                    assert(!carry2); // f <= 1921/2048
                } else {
                    carry = 0;
                    bool carry2 = false;
                    mant = roundFraction(p - 1024, 10, carry2);
                    if (carry2) { // rounded up to 2.0
                        carry = 1;
                        mant = 0;
                    }
                }
                mul_[idx] = static_cast<uint8_t>((carry << 5) | mant);
            }
        }
    }
}

uint32_t
LookupTable::roundFraction(uint32_t frac, int frac_bits, bool &carry) const
{
    carry = false;
    const int drop = frac_bits - kOperandBits;
    assert(drop >= 0);
    if (drop == 0)
        return frac;
    uint32_t kept = frac >> drop;
    const uint32_t rem = frac & ((1u << drop) - 1);
    switch (mode_) {
      case RoundingMode::Truncation:
        break;
      case RoundingMode::RoundToNearest: {
        const uint32_t half = 1u << (drop - 1);
        if (rem > half || (rem == half && (kept & 1)))
            ++kept;
        break;
      }
      case RoundingMode::Jamming: {
        const int guards = drop < 3 ? drop : 3;
        if ((rem >> (drop - guards)) != 0)
            kept |= 1;
        break;
      }
    }
    if (kept >= 32) {
        carry = true;
        kept = 0;
    }
    return kept;
}

bool
LookupTable::serviceable(Opcode op, int mantissa_bits)
{
    return (op == Opcode::Add || op == Opcode::Sub || op == Opcode::Mul) &&
        mantissa_bits <= kMaxPrecision;
}

bool
LookupTable::lookup(Opcode op, uint32_t a, uint32_t b, uint32_t &out) const
{
    if (!inTableDomain(a) || !inTableDomain(b))
        return false;

    if (op == Opcode::Mul) {
        const uint32_t entry = mul_[(field5(a) << kOperandBits) | field5(b)];
        const int exp = static_cast<int>(exponentOf(a)) +
            static_cast<int>(exponentOf(b)) - kExponentBias +
            ((entry >> 5) & 1);
        if (exp <= 0 || exp >= static_cast<int>(kExpMask))
            return false; // out of normal range: full FPU handles it
        out = packFloat(signOf(a) ^ signOf(b), static_cast<uint32_t>(exp),
                        (entry & 0x1fu) << kFieldShift);
        return true;
    }

    // Effective addition/subtraction: fold the Sub opcode into b's sign.
    const uint32_t vb = op == Opcode::Sub ? (b ^ 0x80000000u) : b;
    const bool eff_sub = signOf(a) != signOf(vb);

    uint32_t big = a, small = vb;
    if (magnitude(vb) > magnitude(a)) {
        big = vb;
        small = a;
    }
    const uint32_t sign = signOf(big);
    const int e_big = static_cast<int>(exponentOf(big));
    const int d = e_big - static_cast<int>(exponentOf(small));
    const uint32_t f_big = field5(big);
    const uint32_t f_small = field5(small);

    if (d == 0) {
        // Equal exponents: detected by the exponent logic and computed
        // with the 5-bit significand adder directly (no table access).
        if (eff_sub) {
            const uint32_t n = f_big - f_small; // f_big >= f_small
            if (n == 0) {
                out = 0; // exact cancellation -> +0
                return true;
            }
            const int j = std::bit_width(n) - 1;
            const int exp = e_big - (5 - j);
            if (exp <= 0)
                return false;
            out = packFloat(sign, static_cast<uint32_t>(exp),
                            ((n << (5 - j)) - 32) << kFieldShift);
            return true;
        }
        const uint32_t n = 64 + f_big + f_small; // carry guaranteed
        const int exp = e_big + 1;
        if (exp >= static_cast<int>(kExpMask))
            return false;
        bool carry2 = false;
        const uint32_t mant = roundFraction(n - 64, 6, carry2);
        out = packFloat(sign, static_cast<uint32_t>(exp),
                        mant << kFieldShift);
        return true;
    }

    // Aligned field: the smaller significand (implicit one visible)
    // shifted right by the exponent difference; shifted-out bits drop.
    const uint32_t y = d >= 6 ? 0u : ((32u | f_small) >> d);
    const int idx = static_cast<int>((f_big << kOperandBits) | y);

    if (eff_sub) {
        if (!subBank_)
            return false; // paper-literal table: defer to next level
        const uint32_t entry = sub_[idx];
        const int exp = e_big - static_cast<int>(entry >> 5);
        if (exp <= 0)
            return false;
        out = packFloat(sign, static_cast<uint32_t>(exp),
                        (entry & 0x1fu) << kFieldShift);
        return true;
    }
    const uint32_t entry = add_[idx];
    const int exp = e_big + static_cast<int>((entry >> 5) & 1);
    if (exp >= static_cast<int>(kExpMask))
        return false;
    out = packFloat(sign, static_cast<uint32_t>(exp),
                    (entry & 0x1fu) << kFieldShift);
    return true;
}

} // namespace fpu
} // namespace hfpu
